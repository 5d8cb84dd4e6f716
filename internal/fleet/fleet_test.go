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
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/resultcache"
	"repro/internal/runner"
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

// startWorker spins an in-process ckeserve worker.
func startWorker(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runFleet runs one coordinator over reqs and returns the merged NDJSON.
func runFleet(t *testing.T, cfg fleet.Config, reqs []server.JobRequest) (string, fleet.Stats) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 25*time.Millisecond, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := c.Run(ctx, reqs, &out); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return out.String(), c.StatsSnapshot()
}

// runJournaled is runFleet through a runner that holds jnl, the
// coordinator's own progress, and writes the Lines Coordinator.Run would.
func runJournaled(t *testing.T, cfg fleet.Config, jnl *resultcache.Store, reqs []server.JobRequest) (string, fleet.Stats) {
	t.Helper()
	cfg.Logf = t.Logf
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 25*time.Millisecond, 2)
	defer c.Close()
	jobs := make([]runner.Job, len(reqs))
	for i := range reqs {
		if jobs[i], _, _, err = reqs[i].Build(); err != nil {
			t.Fatal(err)
		}
	}
	r := runner.New(0)
	r.Executor, r.Cache = c, jnl
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for i, res := range r.Run(context.Background(), jobs) {
		enc.Encode(fleet.LineOf(i, res))
	}
	return out.String(), c.StatsSnapshot()
}

// killAfterFirstReply closes a worker once the first job result reaches
// the coordinator — a deterministic "mid-sweep" crash.
type killAfterFirstReply struct {
	http.RoundTripper
	once sync.Once
	kill func()
}

func (k *killAfterFirstReply) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := k.RoundTripper.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.URL.Path == "/jobs" {
		k.once.Do(func() { go k.kill() })
	}
	return resp, err
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
		Workers: []string{w1.URL, w2.URL, w3.URL},
		Transport: &killAfterFirstReply{RoundTripper: inj.Transport(nil), kill: func() {
			w3.CloseClientConnections()
			w3.Close()
		}},
		JobTimeout: time.Minute,
		Logf:       t.Logf,
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 250*time.Millisecond, 2)
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Run(ctx, reqs, &buf); err != nil {
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

// TestCoordinatorIsTheOneRetry: a worker answers each fingerprint's
// first dispatch with a transient 500 (an injected panic) and does not
// re-run it itself; the coordinator's requeue is what recovers the job,
// and the merged output is byte-identical to a clean single-node run.
func TestCoordinatorIsTheOneRetry(t *testing.T) {
	reqs := []server.JobRequest{fleetJob(2), fleetJob(3), fleetJob(4)}
	clean := startWorker(t, server.Config{})
	golden, _ := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)

	panicky := startWorker(t, server.Config{
		Chaos: chaos.New(chaos.Config{Seed: 5, PanicProb: 1, Failures: 1}),
	})
	out, st := runFleet(t, fleet.Config{Workers: []string{panicky.URL}}, reqs)
	if out != golden {
		t.Fatalf("output diverged:\nfleet:\n%s\nclean:\n%s", out, golden)
	}
	if st.Requeues < int64(len(reqs)) || st.Failed != 0 {
		t.Fatalf("stats = %+v, want >= %d requeues (one per fingerprint) and 0 failed", st, len(reqs))
	}
}

// TestFleetHedgesStraggler: one worker hangs every job it is handed;
// the straggler threshold hedges those dispatches to the healthy worker
// and the hedge's result wins, so the sweep completes with every line
// populated.
func TestFleetHedgesStraggler(t *testing.T) {
	slow := startWorker(t, server.Config{
		JobTimeout: time.Hour,
		Chaos:      chaos.New(chaos.Config{Seed: 7, HangProb: 1, Hang: time.Hour, Failures: 1 << 30}),
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

// TestFleetResumeFromCoordinatorJournal is the fleet-resume acceptance
// test: the coordinator's runner journal holds five of six jobs and a
// torn tail, as if the coordinator died mid-append, and the resumed
// sweep must dispatch only the sixth, emit byte-identical merged output,
// and leave all six keys journaled.
func TestFleetResumeFromCoordinatorJournal(t *testing.T) {
	reqs := []server.JobRequest{
		fleetJob(2), fleetJob(3), fleetJob(4), fleetJob(5), fleetJob(6), fleetJob(7),
	}
	clean := startWorker(t, server.Config{})
	golden, _ := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)

	path := filepath.Join(t.TempDir(), "coord.ckpt")
	jnl, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	runJournaled(t, fleet.Config{Workers: []string{clean.URL}}, jnl, reqs[:5])
	jnl.Close()
	corrupt(t, path)

	resumed, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Len() != 5 {
		t.Fatalf("coordinator journal recovered %d entries, want 5 (torn tail dropped)", resumed.Len())
	}
	w := startWorker(t, server.Config{})
	out, st := runJournaled(t, fleet.Config{Workers: []string{w.URL}}, resumed, reqs)
	if out != golden {
		t.Fatalf("resumed fleet output diverged:\nresumed:\n%s\ngolden:\n%s", out, golden)
	}
	if st.Dispatched != 1 {
		t.Fatalf("resume dispatched %d jobs, want 1", st.Dispatched)
	}
	if resumed.Len() != len(reqs) {
		t.Fatalf("coordinator journal holds %d keys after resume, want %d", resumed.Len(), len(reqs))
	}
}

// replyRewriter damages the first two job results each key gets on
// their way to the coordinator: the first loses its digest, the second
// answers for another key.
type replyRewriter struct {
	mu   sync.Mutex
	seen map[string]int
}

func (r *replyRewriter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	key := req.Header.Get(chaos.JobKeyHeader)
	if err != nil || key == "" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	r.mu.Lock()
	n := r.seen[key]
	r.seen[key]++
	r.mu.Unlock()
	if n >= 2 {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	if n == 0 {
		delete(reply, "digest")
	} else {
		reply["key"] = json.RawMessage(`"j1-another-job"`)
	}
	if body, err = json.Marshal(reply); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestFleetRejectsRepliesWithoutDigestOrWithAnotherKey: a 200 reply
// whose digest was stripped, or whose key is not the dispatched
// fingerprint, is a malformed body — the worker is ejected and the job
// requeued — never a result accepted unverified.
func TestFleetRejectsRepliesWithoutDigestOrWithAnotherKey(t *testing.T) {
	reqs := []server.JobRequest{fleetJob(2), fleetJob(3), fleetJob(4)}
	clean := startWorker(t, server.Config{})
	golden, _ := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)

	w1 := startWorker(t, server.Config{})
	w2 := startWorker(t, server.Config{})
	out, st := runFleet(t, fleet.Config{
		Workers:   []string{w1.URL, w2.URL},
		Transport: &replyRewriter{seen: map[string]int{}},
	}, reqs)
	if out != golden {
		t.Fatalf("output diverged:\nfleet:\n%s\nclean:\n%s", out, golden)
	}
	if st.Requeues < int64(2*len(reqs)) || st.Ejections == 0 || st.Failed != 0 {
		t.Fatalf("damaged replies were accepted: %+v (want >= %d requeues, ejections, no failures)", st, 2*len(reqs))
	}
}
