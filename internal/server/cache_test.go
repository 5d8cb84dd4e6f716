package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

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
	if st.CacheHits < 1 {
		t.Fatalf("statz cache_hits = %d, want >= 1", st.CacheHits)
	}
	if st.CacheMisses < 1 {
		t.Fatalf("statz cache_misses = %d, want >= 1", st.CacheMisses)
	}
	if st.CacheLen != 1 {
		t.Fatalf("statz cache_len = %d, want 1", st.CacheLen)
	}
	// Both POSTs completed, but only the first occupied an execution slot.
	if st.Completed != 2 || st.Accepted != 1 {
		t.Fatalf("stats = %+v, want 2 completed / 1 accepted", st)
	}
}

// TestChaosCacheFaultDegradesGracefully: an injected cache-write fault
// must not fail the job — the result is still computed and returned,
// the failed persist is counted, and the entry still serves repeats
// from the memory tier.
func TestChaosCacheFaultDegradesGracefully(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	srv := New(Config{
		Workers: 2,
		Cache:   newCache(t, path),
		Chaos:   chaos.New(chaos.Config{Seed: 7, CacheProb: 1, Failures: 1}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postJob(t, ts, smallJob(8))
	if status != http.StatusOK {
		t.Fatalf("POST under cache fault: status %d, body %+v", status, first)
	}
	if first.WeightedSpeedup <= 0 {
		t.Fatalf("no result under cache fault: %+v", first)
	}
	st := srv.StatsSnapshot()
	if st.CachePutErrors < 1 {
		t.Fatalf("statz cache_put_errors = %d, want >= 1", st.CachePutErrors)
	}
	if st.Failed != 0 {
		t.Fatalf("statz failed = %d, want 0 (cache faults never fail jobs)", st.Failed)
	}
	// The entry persisted nowhere but still lives in the memory tier.
	status, second := postJob(t, ts, smallJob(8))
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("repeat after cache fault: status %d, %+v", status, second)
	}
}
