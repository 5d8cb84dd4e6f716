package fleet

// Internal-package tests for the overload-control seams: prober phase
// jitter and the requeue's attempt cap, which a transient failure
// spends and a 429 shed does not. The end-to-end fleet behaviour lives
// in the external fleet_test package; these pin the mechanisms
// directly.

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
	"repro/internal/server"
)

func TestProberPhaseJitterDeterministicAndSpread(t *testing.T) {
	const interval = 250 * time.Millisecond
	urls := []string{
		"http://10.0.0.1:8080", "http://10.0.0.2:8080",
		"http://10.0.0.3:8080", "http://10.0.0.4:8080",
	}
	seen := make(map[time.Duration]bool)
	for _, u := range urls {
		p := proberPhase(u, interval)
		if p < 0 || p >= interval {
			t.Fatalf("phase(%s) = %v, want in [0, %v)", u, p, interval)
		}
		if p != proberPhase(u, interval) {
			t.Fatalf("phase(%s) not deterministic", u)
		}
		seen[p] = true
	}
	// Four workers all landing on the same phase is exactly the
	// thundering herd the jitter exists to prevent.
	if len(seen) < 2 {
		t.Fatalf("all %d workers share one probe phase: %v", len(urls), seen)
	}
	if proberPhase("http://x", 0) != 0 {
		t.Fatal("zero interval must yield zero phase")
	}
}

// TestTransientFailureRequeuedUpToMaxAttempts: a transient worker
// failure is requeued until maxAttempts dispatches have failed, and
// the job then ends as an attempts-exhausted failure line.
func TestTransientFailureRequeuedUpToMaxAttempts(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			w.WriteHeader(http.StatusOK)
		case "/jobs":
			// Parseable transient failure: requeued without ejecting the
			// worker, so the attempt cap (not the health path) decides.
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(server.JobResponse{Error: "injected transient", Transient: true})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer worker.Close()

	c, err := New(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.maxAttempts = 3
	c.retry = backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond, Factor: 1}

	req := server.JobRequest{
		SMs: 2, Cycles: 1000, Kernels: []string{"bp"},
	}
	var out bytes.Buffer
	if err := c.Run(context.Background(), []server.JobRequest{req}, &out); err != nil {
		t.Fatal(err)
	}

	st := c.StatsSnapshot()
	if st.Dispatched != 3 {
		t.Fatalf("dispatched = %d, want 3 (one per allowed attempt)", st.Dispatched)
	}
	// The job ends as a normal attempts-exhausted failure.
	var line Line
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("output %q: %v", out.String(), err)
	}
	if line.Error == "" {
		t.Fatalf("exhausted job reported no error: %+v", line)
	}
}

// TestShedsSpendNoAttempts: sheds are backpressure, not failures — two
// 429s do not use up maxAttempts 2, so the third dispatch still runs.
func TestShedsSpendNoAttempts(t *testing.T) {
	var hits atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			w.WriteHeader(http.StatusOK)
		case "/jobs":
			if hits.Add(1) < 3 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(map[string]string{"error": "admission queue full"})
				return
			}
			// Then fail permanently so the sweep terminates quickly.
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(server.JobResponse{Error: "permanent", Transient: false})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer worker.Close()

	c, err := New(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.maxAttempts = 2
	c.retry = backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond, Factor: 1}
	req := server.JobRequest{SMs: 2, Cycles: 1000, Kernels: []string{"bp"}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := c.Run(ctx, []server.JobRequest{req}, &out); err != nil {
		t.Fatal(err)
	}
	st := c.StatsSnapshot()
	if st.Shed429 != 2 {
		t.Fatalf("shed_429 = %d, want 2", st.Shed429)
	}
	if st.Dispatched != 3 {
		t.Fatalf("dispatched = %d, want 3 (429s must not spend attempts)", st.Dispatched)
	}
}
