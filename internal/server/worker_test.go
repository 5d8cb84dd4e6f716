package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestRetryAfterLoadProportional: the Retry-After hint scales with queue
// depth times the service-time estimate, floored at retryAfterFloor
// (1s) and capped at a minute — and the header on a real queue shed
// reflects it, whatever the shed job's kernel mix.
func TestRetryAfterLoadProportional(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 1})
	if got := srv.retryAfterHint(); got != time.Second {
		t.Fatalf("no samples: hint = %v, want the 1s floor", got)
	}
	srv.est.Observe(2 * time.Second)
	srv.queued.Store(6)
	if got := srv.retryAfterHint(); got != 6*time.Second {
		t.Fatalf("hint = %v, want 6s (6 queued x 2s estimate / 2 workers)", got)
	}
	srv.queued.Store(1)
	if got := srv.retryAfterHint(); got != time.Second {
		t.Fatalf("light load: hint = %v, want the 1s floor", got)
	}
	srv.est.Observe(time.Hour)
	srv.queued.Store(100)
	if got := srv.retryAfterHint(); got != time.Minute {
		t.Fatalf("overload: hint = %v, want the 1m cap", got)
	}

	// A served job feeds the estimate.
	fresh := New(Config{Workers: 1})
	req := smallJob(4)
	job, key, _, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := fresh.execute(context.Background(), job, key, time.Time{}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if fresh.est.Estimate() == 0 {
		t.Fatal("a served job left no estimate")
	}

	// End-to-end: saturate a hang-chaos server whose estimate is primed
	// and check that the shed's Retry-After header carries the derived
	// hint, though the shed job's kernel mix was never served.
	// Workers=1 with the defaulted queue depth (2x workers) admits three
	// requests; the fourth is shed.
	hang := New(Config{
		Workers: 1, JobTimeout: time.Hour,
		Chaos: chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	hang.est.Observe(10 * time.Second)
	ts := httptest.NewServer(hang.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		go func(n int) {
			body, _ := json.Marshal(smallJob(31 + n))
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for hang.StatsSnapshot().Queued < 3 {
		if time.Now().After(deadline) {
			t.Fatal("admission never filled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	body, _ := json.Marshal(smallJob(40))
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// 3 queued x 10s estimate / 1 worker = 30s (rounded to whole seconds).
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want 30 (load-proportional)", got)
	}
	cancel()
}
