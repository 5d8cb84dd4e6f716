package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/resultcache"
)

func newCache(t *testing.T, path string) *resultcache.Store {
	t.Helper()
	c, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRepeatedJobIsCacheHit: the serve-smoke contract — POSTing the
// same job twice simulates once; the repeat is served from the result
// cache ahead of admission, and the hit is visible in /statz.
func TestRepeatedJobIsCacheHit(t *testing.T) {
	srv := New(Config{Workers: 2, Cache: newCache(t, "")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postJob(t, ts, smallJob(4))
	if status != http.StatusOK {
		t.Fatalf("first POST: status %d, body %+v", status, first)
	}
	if first.Cached {
		t.Fatal("first POST served from an empty cache")
	}
	status, second := postJob(t, ts, smallJob(4))
	if status != http.StatusOK {
		t.Fatalf("second POST: status %d, body %+v", status, second)
	}
	if !second.Cached {
		t.Fatalf("repeated POST not a cache hit: %+v", second)
	}
	if second.Attempts != 0 {
		t.Fatalf("cache hit took %d attempts, want 0 (no execution)", second.Attempts)
	}
	if second.WeightedSpeedup != first.WeightedSpeedup ||
		second.ANTT != first.ANTT || second.Fairness != first.Fairness {
		t.Fatalf("cached metrics differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	st := srv.StatsSnapshot()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("statz cache_hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheLen != 1 {
		t.Fatalf("statz cache_len = %d, want 1", st.CacheLen)
	}
	// Both POSTs completed, but only the first occupied an execution slot.
	if st.Completed != 2 || st.Accepted != 1 {
		t.Fatalf("stats = %+v, want 2 completed / 1 accepted", st)
	}
}

// TestChaosCacheFaultDegradesGracefully: the store fault fails a
// durable append, and with it the job — its result never became durable,
// so it is not answered as a success: 500, not transient, counted as a
// failure and a put error, nothing indexed. The resubmit (fault budget
// spent) simulates again and is stored. A memory-only store has no
// append to fail: under the same plan the job succeeds and its repeat
// is a hit.
func TestChaosCacheFaultDegradesGracefully(t *testing.T) {
	plan := chaos.Config{Seed: 7, JournalProb: 1, Failures: 1}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store := newCache(t, path)
	srv := New(Config{Workers: 2, Cache: store, Chaos: chaos.New(plan)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postJob(t, ts, smallJob(8))
	if status != http.StatusInternalServerError || first.Transient {
		t.Fatalf("POST under a store fault: status %d, body %+v; want a permanent 500", status, first)
	}
	st := srv.StatsSnapshot()
	if st.CachePutErrors != 1 || st.Failed != 1 || st.CacheLen != 0 {
		t.Fatalf("statz put_errors/failed/len = %d/%d/%d, want 1/1/0", st.CachePutErrors, st.Failed, st.CacheLen)
	}
	status, second := postJob(t, ts, smallJob(8))
	if status != http.StatusOK || second.Cached || store.Len() != 1 {
		t.Fatalf("resubmit after the fault: status %d, %+v, len %d", status, second, store.Len())
	}

	mem := New(Config{Workers: 2, Cache: newCache(t, ""), Chaos: chaos.New(plan)})
	mts := httptest.NewServer(mem.Handler())
	defer mts.Close()
	for i, wantCached := range []bool{false, true} {
		if status, out := postJob(t, mts, smallJob(8)); status != http.StatusOK || out.Cached != wantCached {
			t.Fatalf("memory-only store, POST %d: status %d, %+v", i, status, out)
		}
	}
}

// TestStatzCountsOneOutcomePerRequest: the admission lookup and the
// runner's own lookup of a first-seen job are one request, so /statz
// reads one miss for it and one hit for each repeat.
func TestStatzCountsOneOutcomePerRequest(t *testing.T) {
	srv := New(Config{Workers: 1, Cache: newCache(t, "")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 4; i++ {
		if status, out := postJob(t, ts, smallJob(6)); status != http.StatusOK || out.Cached != (i > 0) {
			t.Fatalf("POST %d: status %d, %+v", i, status, out)
		}
	}
	if st := srv.StatsSnapshot(); st.CacheHits != 3 || st.CacheMisses != 1 {
		t.Fatalf("statz cache_hits/misses = %d/%d, want 3/1", st.CacheHits, st.CacheMisses)
	}
}

// TestRunnerServedHitIsNotASimulation: on a one-slot server, a request
// that misses at admission and waits while an identical job finishes is
// served from the store by the runner. It must not count as a
// simulation: the service-time estimate and cycles_per_sec stay where
// the one simulation put them.
func TestRunnerServedHitIsNotASimulation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1, Cache: newCache(t, "")})
	// Hold the first simulation until the second request is admitted.
	srv.run.Fault = func(ctx context.Context, _ int, _ string) error {
		for srv.queued.Load() < 2 {
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	outs := make(chan JobResponse, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, out := postJob(t, ts, smallJob(7))
			outs <- out
		}()
	}
	cached := 0
	for i := 0; i < 2; i++ {
		out := <-outs
		if out.Error != "" || out.Attempts != 1 {
			t.Fatalf("reply %d: %+v; want a success that took the slot", i, out)
		}
		if out.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("%d of the two requests were served from the store, want 1", cached)
	}
	if cycles := srv.simCycles.Load(); cycles != smallJob(7).Cycles {
		t.Fatalf("cycles_per_sec counts %d simulated cycles, want one job's %d", cycles, smallJob(7).Cycles)
	}
	if est, ns := srv.est.Estimate(), srv.simNanos.Load(); est != time.Duration(ns) {
		t.Fatalf("service-time estimate %v, want the one simulation's %v", est, time.Duration(ns))
	}
	if st := srv.StatsSnapshot(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("statz cache_hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}
