package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/server"
)

// fleetJob mints a small job request; n varies the static limits so
// each n is a distinct fingerprint.
func fleetJob(n int) server.JobRequest {
	return server.JobRequest{
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

func fastRetry() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Cap: 5 * time.Millisecond, Factor: 2, Jitter: 0.5}
}

// startWorker spins an in-process ckeserve worker.
func startWorker(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	cfg.Worker = true
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Retry == (backoff.Policy{}) {
		cfg.Retry = fastRetry()
	}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runFleet runs one coordinator over reqs and returns the merged NDJSON.
func runFleet(t *testing.T, cfg fleet.Config, reqs []server.JobRequest) (string, fleet.Stats) {
	t.Helper()
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.Retry == (backoff.Policy{}) {
		cfg.Retry = fastRetry()
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 25 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := c.Run(ctx, reqs, &out); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return out.String(), c.StatsSnapshot()
}

// killAfterFirstWrite closes a worker once the first merged line lands —
// a deterministic "mid-sweep" crash.
type killAfterFirstWrite struct {
	io.Writer
	once sync.Once
	kill func()
}

func (k *killAfterFirstWrite) Write(p []byte) (int, error) {
	n, err := k.Writer.Write(p)
	k.once.Do(func() { go k.kill() })
	return n, err
}

// TestFleetMatchesSingleNode is the headline property: a 3-worker fleet
// under network chaos (every fingerprint's first dispatch is dropped or
// answered 503) plus a worker killed mid-sweep produces byte-identical
// merged output to a clean single-worker run — and really did requeue.
func TestFleetMatchesSingleNode(t *testing.T) {
	reqs := []server.JobRequest{
		fleetJob(2), fleetJob(3), fleetJob(4), fleetJob(5),
		fleetJob(6), fleetJob(7), fleetJob(2), fleetJob(5), // duplicates collapse
	}

	clean := startWorker(t, server.Config{})
	golden, gst := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)
	if gst.Requeues != 0 || gst.Failed != 0 {
		t.Fatalf("clean baseline not clean: %+v", gst)
	}
	if got := strings.Count(golden, "\n"); got != len(reqs) {
		t.Fatalf("baseline emitted %d lines, want %d", got, len(reqs))
	}

	w1 := startWorker(t, server.Config{})
	w2 := startWorker(t, server.Config{})
	w3 := startWorker(t, server.Config{})
	inj := chaos.New(chaos.Config{Seed: 11, NetDropProb: 0.5, Net5xxProb: 0.5, Failures: 1})
	cfg := fleet.Config{
		Workers:     []string{w1.URL, w2.URL, w3.URL},
		Transport:   inj.Transport(nil),
		JobTimeout:  time.Minute,
		MaxAttempts: 10,
		Retry:       fastRetry(),
		Logf:        t.Logf,
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out := &killAfterFirstWrite{Writer: &buf, kill: func() {
		w3.CloseClientConnections()
		w3.Close()
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Run(ctx, reqs, out); err != nil {
		t.Fatalf("chaos fleet run: %v", err)
	}
	if buf.String() != golden {
		t.Fatalf("fleet output diverged from single-node run:\nfleet:\n%s\nsingle:\n%s", buf.String(), golden)
	}
	st := c.StatsSnapshot()
	if st.Requeues == 0 {
		t.Fatalf("chaos sweep survived without requeues: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("failed jobs under recoverable chaos: %+v", st)
	}
}

// TestFleetHedgesStraggler: one worker hangs every job it is handed;
// the straggler threshold hedges those dispatches to the healthy worker
// and the hedge's result wins, so the sweep completes with every line
// populated.
func TestFleetHedgesStraggler(t *testing.T) {
	slow := startWorker(t, server.Config{
		JobTimeout: time.Hour, MaxRetries: -1,
		Chaos: chaos.New(chaos.Config{Seed: 7, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
	})
	fast := startWorker(t, server.Config{})

	reqs := make([]server.JobRequest, 8)
	for i := range reqs {
		reqs[i] = fleetJob(10 + i)
	}
	out, st := runFleet(t, fleet.Config{
		Workers:    []string{slow.URL, fast.URL},
		HedgeAfter: 200 * time.Millisecond,
	}, reqs)

	if st.Failed != 0 {
		t.Fatalf("hedged sweep failed jobs: %+v", st)
	}
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("straggler sweep completed without hedging: %+v", st)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, `"error"`) || !strings.Contains(line, `"weighted_speedup"`) {
			t.Fatalf("bad merged line: %s", line)
		}
	}
}

// corrupt appends a torn half-line to a closed journal file, simulating
// a coordinator killed mid-append.
func corrupt(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"j1-torn","val":{"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestFleetResumeFromJournalUnion is the fleet-resume acceptance test:
// two workers each hold a partial journal, the coordinator's own
// journal holds the rest plus a torn tail, and the resumed sweep must
// union all three — re-simulating nothing (the workers are armed to
// fail any real simulation) and emitting byte-identical merged output.
func TestFleetResumeFromJournalUnion(t *testing.T) {
	dir := t.TempDir()
	reqs := []server.JobRequest{
		fleetJob(2), fleetJob(3), fleetJob(4), fleetJob(5), fleetJob(6), fleetJob(7),
	}

	// Golden: the whole sweep on one clean worker.
	clean := startWorker(t, server.Config{})
	golden, _ := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)

	// Seed worker A's journal with jobs 0-2 and worker B's with 3-4 by
	// running partial sweeps against journaled workers.
	pathA := filepath.Join(dir, "workerA.ckpt")
	pathB := filepath.Join(dir, "workerB.ckpt")
	pathC := filepath.Join(dir, "coord.ckpt")
	jA, err := journal.Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	wa := startWorker(t, server.Config{Journal: jA})
	runFleet(t, fleet.Config{Workers: []string{wa.URL}}, reqs[0:3])
	wa.Close()
	jA.Close()

	jB, err := journal.Open(pathB)
	if err != nil {
		t.Fatal(err)
	}
	wb := startWorker(t, server.Config{Journal: jB})
	runFleet(t, fleet.Config{Workers: []string{wb.URL}}, reqs[3:5])
	wb.Close()
	jB.Close()

	// Seed the coordinator journal with job 5, then tear its tail as if
	// the coordinator died mid-append.
	jC, err := journal.Open(pathC)
	if err != nil {
		t.Fatal(err)
	}
	runFleet(t, fleet.Config{Workers: []string{clean.URL}, Journal: jC}, reqs[5:6])
	jC.Close()
	corrupt(t, pathC)

	// Resurrect the fleet. Every worker is armed with an unconditional
	// invariant fault: any job that actually simulates fails loudly, so
	// byte-identical output proves zero re-simulation.
	armed := chaos.Config{Seed: 3, InvariantProb: 1, Failures: 1 << 30}
	jA2, err := journal.Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	defer jA2.Close()
	jB2, err := journal.Open(pathB)
	if err != nil {
		t.Fatal(err)
	}
	defer jB2.Close()
	jC2, err := journal.Open(pathC)
	if err != nil {
		t.Fatal(err)
	}
	defer jC2.Close()
	if jC2.Recovered() != 1 {
		t.Fatalf("coordinator journal recovered %d entries, want 1 (torn tail dropped)", jC2.Recovered())
	}
	wa2 := startWorker(t, server.Config{Journal: jA2, Chaos: chaos.New(armed)})
	wb2 := startWorker(t, server.Config{Journal: jB2, Chaos: chaos.New(armed)})

	out, st := runFleet(t, fleet.Config{
		Workers: []string{wa2.URL, wb2.URL},
		Journal: jC2,
	}, reqs)

	if out != golden {
		t.Fatalf("resumed fleet output diverged:\nresumed:\n%s\ngolden:\n%s", out, golden)
	}
	if st.Resumed != int64(len(reqs)) {
		t.Fatalf("resumed %d jobs, want %d (journal union covers the sweep)", st.Resumed, len(reqs))
	}
	if st.Dispatched != 0 {
		t.Fatalf("resume dispatched %d jobs, want 0", st.Dispatched)
	}
	if jC2.Len() != len(reqs) {
		t.Fatalf("coordinator journal holds %d keys after resume, want %d (worker entries back-filled)", jC2.Len(), len(reqs))
	}
}

// resultRecorder is a coordinator transport that keeps, per job key, the
// result bytes a worker answered with.
type resultRecorder struct {
	mu   sync.Mutex
	sent map[string][]byte
}

func (r *resultRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	key := req.Header.Get(chaos.JobKeyHeader)
	if err != nil || key == "" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var shadow struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(body, &shadow) == nil {
		r.mu.Lock()
		r.sent[key] = shadow.Result
		r.mu.Unlock()
	}
	return resp, nil
}

// TestFleetJournalsWorkerBytes: the coordinator journals each result as
// the bytes a worker sent, not a re-encoding of its decoded copy.
func TestFleetJournalsWorkerBytes(t *testing.T) {
	reqs := []server.JobRequest{fleetJob(2), fleetJob(3), fleetJob(4), fleetJob(5)}
	w1 := startWorker(t, server.Config{})
	w2 := startWorker(t, server.Config{})
	j, err := journal.Open(filepath.Join(t.TempDir(), "coord.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := &resultRecorder{sent: map[string][]byte{}}
	runFleet(t, fleet.Config{Workers: []string{w1.URL, w2.URL}, Journal: j, Transport: rec}, reqs)

	if len(rec.sent) != len(reqs) || j.Len() != len(reqs) {
		t.Fatalf("recorded %d results, journaled %d, want %d each", len(rec.sent), j.Len(), len(reqs))
	}
	for key, sent := range rec.sent {
		val, ok := j.Raw(key)
		if !ok {
			t.Fatalf("%s: not journaled", key)
		}
		if !bytes.Equal(val, sent) {
			t.Fatalf("%s: journaled val differs from the worker's result\njournal: %s\nworker:  %s", key, val, sent)
		}
	}
}
