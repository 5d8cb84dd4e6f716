package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/chaos"
	"repro/internal/resultcache"
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

// TestRefusesOutOfRangeMachine: a negative sms or profile_cycles on the
// wire answers 400 naming the field, instead of being keyed and
// simulated as the default machine; an omitted sms still means 4 and an
// omitted profile_cycles still means cycles.
func TestRefusesOutOfRangeMachine(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	job := func(sms int, profileCycles int64) JobRequest {
		req := smallJob(4)
		req.SMs, req.Cycles, req.ProfileCycles = sms, 2_000, profileCycles
		return req
	}
	for _, c := range []struct {
		req   JobRequest
		field string
	}{
		{job(-3, -7), "sms"},
		{job(0, -7), "profile_cycles"},
		{job(4, -7), "profile_cycles"},
	} {
		status, out := postJob(t, ts, c.req)
		if status != http.StatusBadRequest || !strings.HasPrefix(out.Error, c.field+" ") {
			t.Errorf("sms %d, profile_cycles %d: status %d, error %q; want 400 naming %s",
				c.req.SMs, c.req.ProfileCycles, status, out.Error, c.field)
		}
	}
	explicit, defaulted := job(4, 2_000), job(0, 0)
	_, want, _, err := explicit.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, got, _, err := defaulted.Build(); err != nil || got != want {
		t.Fatalf("sms 0, profile_cycles 0 keys %q (%v), want %q", got, err, want)
	}
}

// TestChaosPanicAnsweredOnceThenResubmitSucceeds: an injected worker
// panic is answered as a transient 500 after one attempt — the server
// does not re-run the job — and resubmitting it, the coordinator's
// requeue, succeeds in one attempt, with /healthz green throughout.
func TestChaosPanicAnsweredOnceThenResubmitSucceeds(t *testing.T) {
	srv := New(Config{
		Workers: 2,
		Chaos:   chaos.New(chaos.Config{Seed: 5, PanicProb: 1, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(4))
	if status != http.StatusInternalServerError || !out.Transient || out.Attempts != 1 {
		t.Fatalf("status %d, body %+v; want a transient 500 after 1 attempt", status, out)
	}
	if got := getStatus(t, ts, "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d during chaos, want 200", got)
	}
	status, out = postJob(t, ts, smallJob(4))
	if status != http.StatusOK || out.Attempts != 1 || out.WeightedSpeedup <= 0 {
		t.Fatalf("resubmit: status %d, body %+v; want a result after 1 attempt", status, out)
	}
	if st := srv.StatsSnapshot(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 failed, 1 completed", st)
	}
}

// TestChaosHangAnswered504AfterOneAttempt: an injected hang is killed
// by the per-attempt deadline and answered 504 (transient) without a
// second attempt on this server.
func TestChaosHangAnswered504AfterOneAttempt(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1})
	srv := New(Config{Workers: 2, JobTimeout: 500 * time.Millisecond, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(8))
	if status != http.StatusGatewayTimeout || !out.Transient || out.Attempts != 1 {
		t.Fatalf("status %d, body %+v; want a transient 504 after 1 attempt", status, out)
	}
	if got := inj.Counts()[chaos.KindHang]; got != 1 {
		t.Fatalf("%d hangs injected, want 1", got)
	}
}

// TestInvariantExecutedEverySubmission: a fingerprint that trips the
// invariant watchdog is executed each time it is submitted and answered
// 500 (permanent) each time — never shed with 429 on its history, which
// a coordinator would read as backpressure and wait out.
func TestInvariantExecutedEverySubmission(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, InvariantProb: 1, Failures: 1 << 30})
	srv := New(Config{Workers: 2, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const submits = 4
	for i := 1; i <= submits; i++ {
		status, out := postJob(t, ts, smallJob(16))
		if status != http.StatusInternalServerError || out.Transient || out.Attempts != 1 {
			t.Fatalf("submit %d: status %d, body %+v; want a permanent 500 after 1 attempt", i, status, out)
		}
		if got := inj.Counts()[chaos.KindInvariant]; got != i {
			t.Fatalf("submit %d: %d violations injected, want %d (one execution per submission)", i, got, i)
		}
	}
	if st := srv.StatsSnapshot(); st.Failed != submits {
		t.Fatalf("failed = %d, want %d", st.Failed, submits)
	}
}

// TestStatzHasNoRetryOrBreakerKeys: /statz renders no gauge of a retry
// loop, a retry budget or a circuit breaker, which the server does not
// have.
func TestStatzHasNoRetryOrBreakerKeys(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()
	if status, out := postJob(t, ts, smallJob(2)); status != http.StatusOK {
		t.Fatalf("status %d, body %+v", status, out)
	}
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var keys map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["failed"]; !ok {
		t.Fatalf("/statz = %v, want the failed counter", keys)
	}
	for _, k := range []string{"retries", "shed_retry_budget", "retry_budget_tokens",
		"shed_breaker", "breaker_open", "breakers"} {
		if v, ok := keys[k]; ok {
			t.Errorf("/statz renders %q = %s", k, v)
		}
	}
}

// TestJournalFaultTypedAndConsistent: an injected fault in the durable
// store's append surfaces as a typed non-transient error with no
// index/file divergence; a resubmit (fault budget spent) is stored
// durably, and a third submit is served from the store.
func TestJournalFaultTypedAndConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	jnl, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Workers: 2,
		Cache:   jnl,
		Chaos:   chaos.New(chaos.Config{Seed: 5, JournalProb: 1, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, out := postJob(t, ts, smallJob(32))
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %+v", status, out)
	}
	if !strings.Contains(out.Error, "storing") {
		t.Fatalf("error not attributed to the store: %q", out.Error)
	}
	if out.Transient {
		t.Fatal("store write fault classified transient (re-simulating does not fix the disk)")
	}
	if data, _ := os.ReadFile(path); jnl.Len() != 0 || len(data) != 0 {
		t.Fatalf("store holds %d entries and %d bytes after a faulted append, want none", jnl.Len(), len(data))
	}

	// Resubmit: fault budget spent, so the append goes through.
	status, out2 := postJob(t, ts, smallJob(32))
	if status != http.StatusOK || out2.Cached || jnl.Len() != 1 {
		t.Fatalf("resubmit: status %d, body %+v, len %d", status, out2, jnl.Len())
	}
	// And a third submit is served from the store without simulating.
	status, out3 := postJob(t, ts, smallJob(32))
	if status != http.StatusOK || !out3.Cached {
		t.Fatalf("third submit: status %d cached=%v, want a store hit", status, out3.Cached)
	}
	if out3.WeightedSpeedup != out2.WeightedSpeedup {
		t.Fatalf("stored WS %v != simulated WS %v", out3.WeightedSpeedup, out2.WeightedSpeedup)
	}
}

// TestAdmissionQueueSheds: once Workers+QueueDepth requests are in the
// building, the next one bounces with 429 + Retry-After and /readyz
// goes red, while /healthz stays green.
func TestAdmissionQueueSheds(t *testing.T) {
	// Jobs hang forever (budget unlimited) so the building stays full.
	srv := New(Config{
		Workers: 1, QueueDepth: 1,
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
// work, completes the in-flight job, and leaves a durable store a fresh
// process resumes byte-identically.
func TestDrainFinishesInFlightAndJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.journal")
	jnl, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, Cache: jnl})
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
	// The store was closed: appends fail, and a fresh process serves
	// the drained job's result byte-identically.
	if err := jnl.Put("x", []byte("1")); err == nil {
		t.Fatal("store still open after drain")
	}
	j2, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	raw, ok := j2.Get(got.out.Key)
	if !ok {
		t.Fatal("drained job missing from the reopened store")
	}
	var replayed gcke.WorkloadResult
	if err := json.Unmarshal(raw, &replayed); err != nil {
		t.Fatalf("decoding the drained result: %v", err)
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

// postRaw posts body to /jobs and returns the status and error text.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out.Error
}

// TestRefusesUndefinedSchemeKinds: a partition, memory issue or
// limiting kind outside the defined constants answers 400 before
// admission, instead of running as another scheme under its own
// fingerprint or failing inside the simulation.
func TestRefusesUndefinedSchemeKinds(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, scheme := range []string{
		`{"Partition":4,"MemIssue":7}`,
		`{"Limiting":42}`,
		`{"Partition":99}`,
	} {
		body := `{"sms":1,"cycles":6000,"kernels":["bp","ks"],"scheme":` + scheme + `}`
		if status, msg := postRaw(t, ts, body); status != http.StatusBadRequest || !strings.Contains(msg, "undefined") {
			t.Errorf("scheme %s: status %d, error %q; want 400 naming the undefined kind", scheme, status, msg)
		}
	}
	if n := srv.StatsSnapshot().Accepted; n != 0 {
		t.Fatalf("%d jobs with undefined kinds were admitted", n)
	}
}

// TestRefusesUnknownFields: a misspelt field and a field the scheme no
// longer has answer 400 instead of being dropped, which would run
// another job than the one asked for.
func TestRefusesUnknownFields(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, scheme := range []string{`{"Partiton":2}`, `{"Warmup":5000}`} {
		body := `{"sms":1,"cycles":6000,"kernels":["bp","ks"],"scheme":` + scheme + `}`
		if status, msg := postRaw(t, ts, body); status != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Errorf("scheme %s: status %d, error %q; want 400 naming the unknown field", scheme, status, msg)
		}
	}
	if n := srv.StatsSnapshot().Accepted; n != 0 {
		t.Fatalf("%d jobs with unknown fields were admitted", n)
	}
}

// TestRequestTimeoutLayered: a request-level timeout bounds the job's
// one attempt when the server sets no per-attempt deadline: the hung
// attempt is cancelled and answered 504, transient, once.
func TestRequestTimeoutLayered(t *testing.T) {
	srv := New(Config{
		Workers: 1,
		Chaos:   chaos.New(chaos.Config{Seed: 5, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := smallJob(7)
	req.Timeout = "200ms"
	start := time.Now()
	status, out := postJob(t, ts, req)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("request-level timeout did not bound the attempt (%v)", elapsed)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %+v), want 504", status, out)
	}
	if !out.Transient {
		t.Fatal("deadline expiry not classified transient")
	}
	if out.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", out.Attempts)
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
