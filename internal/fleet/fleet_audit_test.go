package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestFleetAuditQuarantinesCorruptWorker is the integrity acceptance
// test: one worker of three silently corrupts every result it serves —
// self-consistently, so its digests verify and nothing short of an
// independent re-execution can tell. With AuditRate 1 the coordinator
// must catch it, quarantine it, requeue its results, and still emit
// merged output byte-identical to a clean single-worker run.
func TestFleetAuditQuarantinesCorruptWorker(t *testing.T) {
	reqs := []server.JobRequest{
		fleetJob(2), fleetJob(3), fleetJob(4), fleetJob(5), fleetJob(6), fleetJob(7),
	}

	clean := startWorker(t, server.Config{})
	golden, _ := runFleet(t, fleet.Config{Workers: []string{clean.URL}}, reqs)

	liar := startWorker(t, server.Config{
		Chaos: chaos.New(chaos.Config{Seed: 5, CorruptProb: 1, Failures: 1 << 30}),
	})
	w2 := startWorker(t, server.Config{})
	w3 := startWorker(t, server.Config{})

	out, st := runFleet(t, fleet.Config{
		Workers:   []string{liar.URL, w2.URL, w3.URL},
		AuditRate: 1,
	}, reqs)

	if out != golden {
		t.Fatalf("audited fleet output diverged from clean run:\nfleet:\n%s\nclean:\n%s", out, golden)
	}
	if st.Audits == 0 {
		t.Fatalf("no audits ran at AuditRate 1: %+v", st)
	}
	if st.AuditMismatches == 0 {
		t.Fatalf("corrupt worker never tripped an audit: %+v", st)
	}
	if st.Quarantined == 0 {
		t.Fatalf("corrupt worker not quarantined: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("audited sweep failed jobs: %+v", st)
	}
	quarantined := 0
	for _, w := range st.Workers {
		if w.Quarantined {
			quarantined++
			if w.URL != liar.URL {
				t.Fatalf("quarantined the wrong worker: %s (liar is %s)", w.URL, liar.URL)
			}
		}
	}
	if quarantined != 1 {
		t.Fatalf("%d workers quarantined, want exactly the liar: %+v", quarantined, st.Workers)
	}
}

// drainableWorker wraps a real worker handler with a switchable /readyz:
// while draining, /readyz answers 503 and /jobs refuses with the same
// body a draining ckeserve sends, but /healthz stays green — the window
// satellite draining-awareness targets.
func drainableWorker(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	inner := server.New(server.Config{Workers: 2})
	var draining atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			switch r.URL.Path {
			case "/readyz":
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			case "/jobs":
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
				return
			}
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &draining
}

// TestFleetDrainingAwareDispatch: a worker whose /readyz goes red while
// /healthz stays green must stop receiving leases (before its liveness
// fails) and get them back when /readyz recovers. The other worker
// holds every job it is sent until the recovery is seen: a run that
// ends stops the prober, so the run must outlast the recovery.
func TestFleetDrainingAwareDispatch(t *testing.T) {
	w1, draining := drainableWorker(t)
	held := make(chan struct{})
	inner := server.New(server.Config{Workers: 2}).Handler()
	w2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs" {
			<-held
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w2.Close)
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(held) }) }) // before w2.Close, which waits for its requests
	draining.Store(true)

	c, err := fleet.New(fleet.Config{Workers: []string{w1.URL, w2.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 5*time.Millisecond, 2)
	reqs := make([]server.JobRequest, 8)
	for i := range reqs {
		reqs[i] = fleetJob(2 + i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	runErr := make(chan error, 1)
	go func() { runErr <- c.Run(ctx, reqs, &out) }()

	waitFor := func(what string, cond func(fleet.Stats) bool) fleet.Stats {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			st := c.StatsSnapshot()
			if cond(st) {
				return st
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s: %+v", what, c.StatsSnapshot())
		return fleet.Stats{}
	}
	isDraining := func(st fleet.Stats) bool {
		for _, w := range st.Workers {
			if w.URL == w1.URL {
				return w.Draining
			}
		}
		return false
	}
	// The prober must mark the worker draining while its liveness is
	// still green (no ejection for w1 — connection-level health is fine).
	waitFor("draining detection", func(st fleet.Stats) bool { return st.DrainSkips >= 1 && isDraining(st) })

	// Recovery: /readyz goes green again and the worker rejoins.
	draining.Store(false)
	waitFor("drain recovery", func(st fleet.Stats) bool { return !isDraining(st) })
	release.Do(func() { close(held) })

	if err := <-runErr; err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	st := c.StatsSnapshot()
	if st.Failed != 0 {
		t.Fatalf("draining sweep failed jobs: %+v", st)
	}
	if got := strings.Count(out.String(), "\n"); got != len(reqs) {
		t.Fatalf("emitted %d lines, want %d", got, len(reqs))
	}
}

// TestFleetHedgeLoserDiscardedOnce races the hedge loser's late result
// against the winner under -race: every first dispatch is delayed past
// the hedge threshold (but not killed), so the hedge wins and the
// delayed loser's result lands afterwards. Each fingerprint must appear
// exactly once in the merged output, and every lease must be returned
// (no slot leaks from discarded losers).
func TestFleetHedgeLoserDiscardedOnce(t *testing.T) {
	w1 := startWorker(t, server.Config{})
	w2 := startWorker(t, server.Config{})
	// Every key's first dispatch is delayed 400ms in the transport; the
	// retry of the same key (the hedge) passes clean.
	inj := chaos.New(chaos.Config{Seed: 13, NetDelayProb: 1, NetDelay: 400 * time.Millisecond, Failures: 1})

	// Fewer jobs than fleet slots: a hedge can always find a free slot
	// on the other worker, so every delayed dispatch really gets raced.
	reqs := make([]server.JobRequest, 4)
	for i := range reqs {
		reqs[i] = fleetJob(20 + i)
	}
	c, err := fleet.New(fleet.Config{
		Workers:    []string{w1.URL, w2.URL},
		Transport:  inj.Transport(nil),
		HedgeAfter: 50 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Shorten(c, 250*time.Millisecond, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := c.Run(ctx, reqs, &out); err != nil {
		t.Fatalf("fleet run: %v", err)
	}

	st := c.StatsSnapshot()
	if st.Hedges == 0 {
		t.Fatalf("delayed dispatches never hedged: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("hedged sweep failed jobs: %+v", st)
	}
	// Exactly one merged line per request, each key exactly once per
	// submission slot, none with errors: the loser's late result was
	// discarded, not double-emitted.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("emitted %d lines, want %d", len(lines), len(reqs))
	}
	seen := make(map[int]bool)
	for _, line := range lines {
		var l fleet.Line
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad merged line %q: %v", line, err)
		}
		if l.Error != "" || l.WeightedSpeedup == 0 {
			t.Fatalf("bad merged line: %s", line)
		}
		if seen[l.Index] {
			t.Fatalf("index %d emitted twice", l.Index)
		}
		seen[l.Index] = true
	}
	// Lease accounting: every slot (winner's and discarded loser's) is
	// eventually released.
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := 0
		for _, w := range c.StatsSnapshot().Workers {
			busy += w.Busy
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked %d worker slots after the sweep", busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
