package fleet

// Internal-package tests for the overload-control seams: prober phase
// jitter and retry-budget requeue pacing. The end-to-end fleet
// behaviour lives in the external fleet_test package; these pin the
// mechanisms directly.

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
	"repro/internal/overload"
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

// TestRetryBudgetPacesRequeues: with the budget drained, a transient
// worker failure is still requeued (maxAttempts stays the only cap) but
// only after budgetWait — and the pacing is visible in stats.
func TestRetryBudgetPacesRequeues(t *testing.T) {
	var hits atomic.Int64
	var times [3]atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			w.WriteHeader(http.StatusOK)
		case "/jobs":
			n := hits.Add(1)
			if n <= int64(len(times)) {
				times[n-1].Store(time.Now().UnixNano())
			}
			// Parseable transient failure: requeued without ejecting the
			// worker, so the budget path (not the health path) decides.
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(server.JobResponse{Error: "injected transient", Transient: true})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer worker.Close()

	const pace = 120 * time.Millisecond
	c, err := New(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.maxAttempts = 3
	c.retry = backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond, Factor: 1}
	c.budget = overload.NewRetryBudget(retryBudgetRatio, 0) // every requeue is paced
	c.budgetWait = pace

	req := server.JobRequest{
		SMs: 2, Cycles: 1000, Kernels: []string{"bp"},
	}
	var out bytes.Buffer
	if err := c.Run(context.Background(), []server.JobRequest{req}, &out); err != nil {
		t.Fatal(err)
	}

	st := c.StatsSnapshot()
	if st.Dispatched != 3 {
		t.Fatalf("dispatched = %d, want 3 (budget must pace, not abandon)", st.Dispatched)
	}
	if st.RetryBudgetWaits != 2 {
		t.Fatalf("retry_budget_waits = %d, want 2", st.RetryBudgetWaits)
	}
	if st.RetryBudgetTokens != 0 {
		t.Fatalf("retry_budget_tokens = %v, want 0", st.RetryBudgetTokens)
	}
	// Each paced requeue must have waited out budgetWait, not the
	// millisecond backoff.
	for i := 0; i < 2; i++ {
		gap := time.Duration(times[i+1].Load() - times[i].Load())
		if gap < pace {
			t.Fatalf("requeue %d fired after %v, want >= %v (paced)", i+1, gap, pace)
		}
	}
	// The job still ends as a normal attempts-exhausted failure.
	var line Line
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("output %q: %v", out.String(), err)
	}
	if line.Error == "" {
		t.Fatalf("exhausted job reported no error: %+v", line)
	}
}

// TestRetryBudgetExemptFrom429: sheds are backpressure, not retries —
// they must not spend budget tokens or trigger pacing.
func TestRetryBudgetExemptFrom429(t *testing.T) {
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
	c.budget = overload.NewRetryBudget(retryBudgetRatio, 0) // any spend attempt would pace
	c.budgetWait = time.Hour
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
	if st.RetryBudgetWaits != 0 {
		t.Fatalf("429s consulted the retry budget: waits = %d, want 0", st.RetryBudgetWaits)
	}
}
