package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/chaos"
)

// TestRetryCancelRace pins the fix for the drain/timeout retry race: a
// cancellation that lands while an attempt is in flight (or while the
// backoff timer is firing) must not buy the job one more attempt. The
// fault hook cancels the request context from inside attempt 1 and then
// panics (a transient failure); with a near-zero backoff the old loop
// could race the expired timer past the cancelled context into attempt
// 2. Run with -race: the assertion is attempts == 1, every time.
func TestRetryCancelRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv := New(Config{Workers: 1})
		srv.maxRetries = 10
		srv.retry = backoff.Policy{Base: time.Nanosecond, Cap: time.Nanosecond, Factor: 1}
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		srv.run.Fault = func(fctx context.Context, index int, key string) error {
			calls.Add(1)
			cancel() // the drain/deadline fires mid-attempt
			panic("transient failure after cancellation")
		}
		req := smallJob(5)
		job, key, _, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, attempts := srv.execute(ctx, job, key, req.Family(), time.Time{})
		if res.Err == nil {
			t.Fatal("cancelled retry loop reported success")
		}
		if attempts != 1 {
			t.Fatalf("iteration %d: %d attempts after cancellation, want exactly 1", i, attempts)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("iteration %d: job executed %d times after cancellation, want 1", i, got)
		}
		cancel()
	}
}

// TestStatzPerFingerprintBreakers: /statz reports each unhealthy
// fingerprint's circuit state — accumulating below threshold, open with
// remaining cooldown at threshold, half-open once the cooldown elapses.
func TestStatzPerFingerprintBreakers(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, InvariantProb: 1, Failures: 1 << 30})
	srv := fast(New(Config{Workers: 2, Chaos: inj}))
	srv.brk = newBreaker(2, time.Hour)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One violation: accumulating, not open.
	if status, _ := postJob(t, ts, smallJob(21)); status != http.StatusInternalServerError {
		t.Fatalf("status = %d", status)
	}
	st := srv.StatsSnapshot()
	if len(st.Breakers) != 1 {
		t.Fatalf("breakers = %+v, want 1 tracked fingerprint", st.Breakers)
	}
	if b := st.Breakers[0]; b.State != "accumulating" || b.Fails != 1 || b.CooldownMs != 0 {
		t.Fatalf("after 1 violation: %+v", b)
	}

	// Second violation: open, cooldown counting down.
	if status, _ := postJob(t, ts, smallJob(21)); status != http.StatusInternalServerError {
		t.Fatalf("status = %d", status)
	}
	st = srv.StatsSnapshot()
	if b := st.Breakers[0]; b.State != "open" || b.Fails != 2 || b.CooldownMs <= 0 {
		t.Fatalf("after threshold: %+v", b)
	}
	if st.BreakerOpen != 1 {
		t.Fatalf("BreakerOpen = %d", st.BreakerOpen)
	}

	// Cooldown elapsed (clock injected): half-open, probe allowed next.
	srv.brk.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	st = srv.StatsSnapshot()
	if b := st.Breakers[0]; b.State != "half-open" || b.CooldownMs != 0 {
		t.Fatalf("after cooldown: %+v", b)
	}
	// The statz JSON carries the list end-to-end.
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire Stats
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Breakers) != 1 || wire.Breakers[0].State != "half-open" {
		t.Fatalf("wire breakers = %+v", wire.Breakers)
	}
}

// TestRetryAfterLoadProportional: the Retry-After hint scales with queue
// depth times the latency EWMA, floored at retryAfterFloor (1s) and capped
// at a minute — and the header on a real queue shed reflects it.
func TestRetryAfterLoadProportional(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 1})
	if got := srv.retryAfterHint(); got != time.Second {
		t.Fatalf("no samples: hint = %v, want the 1s floor", got)
	}
	srv.latEWMA.Store(int64(2 * time.Second))
	srv.queued.Store(6)
	if got := srv.retryAfterHint(); got != 6*time.Second {
		t.Fatalf("hint = %v, want 6s (6 queued x 2s EWMA / 2 workers)", got)
	}
	srv.queued.Store(1)
	if got := srv.retryAfterHint(); got != time.Second {
		t.Fatalf("light load: hint = %v, want the 1s floor", got)
	}
	srv.latEWMA.Store(int64(time.Hour))
	srv.queued.Store(100)
	if got := srv.retryAfterHint(); got != time.Minute {
		t.Fatalf("overload: hint = %v, want the 1m cap", got)
	}

	// End-to-end: saturate a hang-chaos server whose EWMA is primed and
	// check the shed's Retry-After header carries the derived hint.
	// Workers=1 with the defaulted queue depth (2x workers) admits three
	// requests; the fourth is shed.
	hang := New(Config{
		Workers: 1, JobTimeout: time.Hour,
		Chaos: chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	hang.maxRetries = 0
	hang.latEWMA.Store(int64(10 * time.Second))
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
	// 3 queued x 10s EWMA / 1 worker = 30s (rounded to whole seconds).
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After = %q, want 30 (load-proportional)", got)
	}
	cancel()
}
