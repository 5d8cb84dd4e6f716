package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/journal"
)

// smallJob returns a job request light enough for test runtimes; n
// varies the scheme's static limits so each n mints a distinct job
// fingerprint.
func smallJob(n int) JobRequest {
	return JobRequest{
		SMs:           2,
		Cycles:        8_000,
		ProfileCycles: 6_000,
		Kernels:       []string{"bp", "ks"},
		Scheme: gcke.Scheme{
			Partition:    gcke.PartitionEven,
			Limiting:     gcke.LimitStatic,
			StaticLimits: []int{n, n},
		},
	}
}

// fastRetry keeps test wall-clock negligible while still exercising the
// deterministic-jitter path.
func fastRetry() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Cap: 5 * time.Millisecond, Factor: 2, Jitter: 0.5}
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (int, JobResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestChaosPanicRetrySucceeds: injected worker panic on the first
// attempt → backoff retry → success, with /healthz green throughout.
func TestChaosPanicRetrySucceeds(t *testing.T) {
	srv := New(Config{
		Workers: 2, Retry: fastRetry(), MaxRetries: 2,
		Chaos: chaos.New(chaos.Config{Seed: 5, PanicProb: 1, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(4))
	if status != http.StatusOK {
		t.Fatalf("status %d, body %+v", status, out)
	}
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one injected panic, one retry)", out.Attempts)
	}
	if out.WeightedSpeedup <= 0 {
		t.Fatalf("no result after recovery: %+v", out)
	}
	if got := getStatus(t, ts, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d during chaos, want 200", got)
	}
	st := srv.StatsSnapshot()
	if st.Retries != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 retry, 1 completed", st)
	}
}

// TestChaosHangDeadlineKillRetry: injected hang → per-attempt deadline
// kills it (transient) → retry succeeds.
func TestChaosHangDeadlineKillRetry(t *testing.T) {
	srv := New(Config{
		Workers: 2, Retry: fastRetry(), MaxRetries: 2,
		// Generous enough that a real (race-detector-slowed) simulation
		// never trips it; only the injected infinite hang can.
		JobTimeout: 5 * time.Second,
		Chaos:      chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(8))
	if status != http.StatusOK {
		t.Fatalf("status %d, body %+v", status, out)
	}
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one deadline kill, one retry)", out.Attempts)
	}
}

// TestInvariantCircuitBreaker: repeated deterministic invariant
// violations for one fingerprint open its circuit; further submissions
// shed with 429 + Retry-After without executing; other fingerprints and
// liveness are unaffected.
func TestInvariantCircuitBreaker(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, InvariantProb: 1, Failures: 1 << 30})
	srv := New(Config{
		Workers: 2, Retry: fastRetry(), MaxRetries: 2,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
		Chaos: inj,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		status, out := postJob(t, ts, smallJob(16))
		if status != http.StatusInternalServerError {
			t.Fatalf("submit %d: status %d, body %+v", i, status, out)
		}
		if out.Transient {
			t.Fatalf("submit %d: invariant violation classified transient", i)
		}
		if out.Attempts != 1 {
			t.Fatalf("submit %d: attempts = %d — invariant violations must not be retried", i, out.Attempts)
		}
	}
	// Threshold reached: the circuit is open, submissions shed.
	body, _ := json.Marshal(smallJob(16))
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-trip status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed without Retry-After")
	}
	executed := inj.Counts()[chaos.KindInvariant]
	if executed != 2 {
		t.Fatalf("open circuit still executed the job: %d faults injected, want 2", executed)
	}
	if srv.StatsSnapshot().BreakerOpen != 1 {
		t.Fatalf("stats report %d open circuits, want 1", srv.StatsSnapshot().BreakerOpen)
	}
	// The circuit is per-fingerprint: a different job still executes
	// (and takes its own first violation, a 500 — not a 429 shed).
	if status, out := postJob(t, ts, smallJob(17)); status != http.StatusInternalServerError {
		t.Fatalf("unrelated fingerprint: status %d, body %+v — want it executed, not shed", status, out)
	}
	if got := inj.Counts()[chaos.KindInvariant]; got != executed+1 {
		t.Fatalf("unrelated fingerprint did not execute: %d faults, want %d", got, executed+1)
	}
	if got := getStatus(t, ts, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d with an open circuit, want 200", got)
	}
}

// TestJournalFaultTypedAndConsistent: an injected journal write fault
// surfaces as a typed non-transient error with no index/file
// divergence; a resubmit (fault budget spent) journals durably.
func TestJournalFaultTypedAndConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Workers: 2, Retry: fastRetry(), MaxRetries: 2,
		Journal: jnl,
		Chaos:   chaos.New(chaos.Config{Seed: 5, JournalProb: 1, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(32))
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %+v", status, out)
	}
	if !strings.Contains(out.Error, "journal") {
		t.Fatalf("error not attributed to the journal: %q", out.Error)
	}
	if out.Transient {
		t.Fatal("journal write fault classified transient (re-simulating does not fix the disk)")
	}
	if jnl.Has(out.Key) {
		t.Fatal("failed append left the key in the index")
	}
	if jnl.Len() != 0 {
		t.Fatalf("journal holds %d entries after a faulted write, want 0", jnl.Len())
	}

	// Resubmit: fault budget spent, so the append goes through.
	status, out2 := postJob(t, ts, smallJob(32))
	if status != http.StatusOK {
		t.Fatalf("resubmit: status %d, body %+v", status, out2)
	}
	if !jnl.Has(out2.Key) {
		t.Fatal("successful job not journaled")
	}
	// And a third submit replays from the journal without simulating.
	status, out3 := postJob(t, ts, smallJob(32))
	if status != http.StatusOK || !out3.Replayed {
		t.Fatalf("third submit: status %d replayed=%v, want journal replay", status, out3.Replayed)
	}
	if out3.WeightedSpeedup != out2.WeightedSpeedup {
		t.Fatalf("replayed WS %v != simulated WS %v", out3.WeightedSpeedup, out2.WeightedSpeedup)
	}
}

// TestAdmissionQueueSheds: once Workers+QueueDepth requests are in the
// building, the next one bounces with 429 + Retry-After and /readyz
// goes red, while /healthz stays green.
func TestAdmissionQueueSheds(t *testing.T) {
	// Jobs hang forever (budget unlimited) so the building stays full.
	srv := New(Config{
		Workers: 1, QueueDepth: 1, Retry: fastRetry(), MaxRetries: 0,
		JobTimeout: time.Hour,
		Chaos:      chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			body, _ := json.Marshal(smallJob(100 + n))
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/jobs", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	// Wait until both requests are admitted (1 executing + 1 queued).
	deadline := time.Now().Add(5 * time.Second)
	for srv.StatsSnapshot().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admission never filled: %+v", srv.StatsSnapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}

	body, _ := json.Marshal(smallJob(200))
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if got := getStatus(t, ts, "/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d while saturated, want 503", got)
	}
	if got := getStatus(t, ts, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d while saturated, want 200", got)
	}
	cancel() // release the hung requests
	wg.Wait()
}

// TestDrainFinishesInFlightAndJournal: SIGTERM-style drain refuses new
// work, completes the in-flight job, and leaves a journal a fresh
// process resumes byte-identically.
func TestDrainFinishesInFlightAndJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Retry: fastRetry(), Journal: jnl})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type jobOut struct {
		status int
		out    JobResponse
	}
	ch := make(chan jobOut, 1)
	go func() {
		status, out := postJob(t, ts, smallJob(64))
		ch <- jobOut{status, out}
	}()
	// Wait for the job to be admitted, then drain mid-flight. With one P
	// this goroutine may first get to look when the few-millisecond job
	// is already done (nothing preempts the simulation that early), so a
	// completed job ends the wait too; Drain must cope either way.
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.StatsSnapshot(); st.Queued < 1 && st.Completed < 1; st = srv.StatsSnapshot() {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	got := <-ch
	if got.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status %d, body %+v", got.status, got.out)
	}
	if got.out.WeightedSpeedup <= 0 {
		t.Fatalf("drained job has no result: %+v", got.out)
	}
	// New work is refused after drain.
	body, _ := json.Marshal(smallJob(65))
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if getStatus(t, ts, "/readyz") != http.StatusServiceUnavailable {
		t.Fatal("readyz green after drain")
	}
	if getStatus(t, ts, "/healthz") != http.StatusOK {
		t.Fatal("healthz red after drain (process is still alive)")
	}
	// The journal was flushed and closed: appends fail, and a fresh
	// process replays the drained job's result byte-identically.
	if err := jnl.Append("x", 1); err == nil {
		t.Fatal("journal still open after drain")
	}
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Has(got.out.Key) {
		t.Fatal("drained job missing from the reopened journal")
	}
	var replayed gcke.WorkloadResult
	if ok, err := j2.Lookup(got.out.Key, &replayed); !ok || err != nil {
		t.Fatalf("lookup drained result: ok=%v err=%v", ok, err)
	}
	if ws := replayed.WeightedSpeedup(); ws != got.out.WeightedSpeedup {
		t.Fatalf("resumed WS %v != served WS %v", ws, got.out.WeightedSpeedup)
	}
}

// TestBadRequests: malformed submissions fail fast with 400 and never
// reach the pool.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []string{
		`{`, // broken JSON
		`{"cycles":0,"kernels":["bp"]}`,
		`{"cycles":1000,"kernels":[]}`,
		`{"cycles":1000,"kernels":["nope"]}`,
		`{"cycles":1000,"kernels":["bp","ks"],"scheme":{"Limiting":1}}`, // SMIL without limits
		`{"cycles":1000,"kernels":["bp"],"timeout":"banana"}`,
	}
	for _, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := srv.StatsSnapshot().Accepted; n != 0 {
		t.Fatalf("%d bad requests were admitted", n)
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestRequestTimeoutLayered: a request-level timeout bounds the whole
// retry loop even when each attempt would pass the per-attempt deadline.
func TestRequestTimeoutLayered(t *testing.T) {
	srv := New(Config{
		Workers: 1, Retry: fastRetry(), MaxRetries: 10,
		Chaos: chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := smallJob(7)
	req.Timeout = "200ms"
	start := time.Now()
	status, out := postJob(t, ts, req)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("request-level timeout did not bound the retry loop (%v)", elapsed)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %+v), want 504", status, out)
	}
	if !out.Transient {
		t.Fatal("deadline expiry not classified transient")
	}
}

// TestFullResult: ?full=1 includes the complete workload result.
func TestFullResult(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(smallJob(3))
	resp, err := ts.Client().Post(ts.URL+"/jobs?full=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil {
		t.Fatal("full=1 response missing result")
	}
	var res gcke.WorkloadResult
	if err := json.Unmarshal(out.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.WeightedSpeedup(); got != out.WeightedSpeedup {
		t.Fatalf("embedded result WS %v != summary WS %v", got, out.WeightedSpeedup)
	}
	if fmt.Sprint(res.Scheme.StaticLimits) != "[3 3]" {
		t.Fatalf("scheme did not round-trip: %+v", res.Scheme)
	}
}

// TestJobConfig: a request's config is the whole machine. One that
// fails Config.Validate is a 400; one equal to ScaledConfig(n) is the
// job sms: n describes, with the same fingerprint.
func TestJobConfig(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	bad := smallJob(2)
	cfg := gcke.ScaledConfig(2)
	cfg.L1D.SizeBytes = 40 * 1024 // not a power-of-two set count
	bad.Config = &cfg
	if code, resp := postJob(t, ts, bad); code != http.StatusBadRequest || !strings.Contains(resp.Error, "L1D") {
		t.Fatalf("invalid config: status %d, error %q; want 400 naming the L1D", code, resp.Error)
	}

	bySMs, byConfig := smallJob(2), smallJob(2)
	scaled := gcke.ScaledConfig(2)
	byConfig.SMs, byConfig.Config = 0, &scaled
	_, k1, _, err := bySMs.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, k2, _, err := byConfig.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("config ScaledConfig(2) keys as %s, sms 2 as %s", k2, k1)
	}
}
