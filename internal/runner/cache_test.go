package runner

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	gcke "repro"
	"repro/internal/journal"
	"repro/internal/resultcache"
)

// TestRunCacheHit: a repeated fingerprint is served from the result
// cache (Cached=true) with a result identical to the simulated one.
func TestRunCacheHit(t *testing.T) {
	c, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(2)
	r.Cache = c
	jobs := testJobs(t, testSession(t))[:3]
	ctx := context.Background()

	cold := r.Run(ctx, jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Cached {
			t.Fatalf("job %d cached on a cold run", i)
		}
	}
	warm := r.Run(ctx, jobs)
	if err := FirstErr(warm); err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("job %d not served from cache on rerun", i)
		}
		if !reflect.DeepEqual(*cold[i].Res.RunResult, *warm[i].Res.RunResult) {
			t.Fatalf("job %d: cached result differs from simulated", i)
		}
		if cold[i].Res.WeightedSpeedup() != warm[i].Res.WeightedSpeedup() {
			t.Fatalf("job %d: cached WS differs", i)
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("cache stats = %+v, want 3 hits / 3 misses", st)
	}
}

// TestRunCachePersistsAcrossProcesses: with a disk-backed cache, a
// fresh runner (a "restarted process") serves the prior run's points
// without simulating.
func TestRunCachePersistsAcrossProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	c1, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(2)
	r1.Cache = c1
	jobs := testJobs(t, testSession(t))[:2]
	cold := r1.Run(context.Background(), jobs)
	if err := FirstErr(cold); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	r2 := New(2)
	r2.Cache = c2
	warm := r2.Run(context.Background(), testJobs(t, testSession(t))[:2])
	if err := FirstErr(warm); err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("job %d not cached after restart", i)
		}
		if !reflect.DeepEqual(*cold[i].Res.RunResult, *warm[i].Res.RunResult) {
			t.Fatalf("job %d: restarted cache served a different result", i)
		}
	}
}

// TestJournalReplayPopulatesCache: a point restored from the result
// journal lands in the result cache, so the next repeat is a cache hit
// (journal lookups and cache hits stay distinguishable in Result).
func TestJournalReplayPopulatesCache(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(filepath.Join(dir, "sweep.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t, testSession(t))[:1]
	r1 := New(1)
	r1.Journal = jnl
	if err := FirstErr(r1.Run(context.Background(), jobs)); err != nil {
		t.Fatal(err)
	}

	c, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(1)
	r2.Journal = jnl
	r2.Cache = c
	replayed := r2.Run(context.Background(), jobs)
	if err := FirstErr(replayed); err != nil {
		t.Fatal(err)
	}
	if !replayed[0].Replayed || replayed[0].Cached {
		t.Fatalf("want journal replay (Replayed, not Cached), got %+v", replayed[0])
	}
	again := r2.Run(context.Background(), jobs)
	if err := FirstErr(again); err != nil {
		t.Fatal(err)
	}
	if !again[0].Cached {
		t.Fatal("journal replay did not populate the result cache")
	}
}

// TestFreshBypassesCacheAndJournal: a Fresh job re-simulates even when
// the journal already holds its fingerprint, and writes nothing back.
func TestFreshBypassesCacheAndJournal(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "fresh.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	job := Job{Session: testSession(t), Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}

	r := New(1)
	r.Journal = j
	first := r.Run(context.Background(), []Job{job})
	if err := FirstErr(first); err != nil {
		t.Fatal(err)
	}
	if first[0].Replayed {
		t.Fatal("first run replayed")
	}

	// Same job again: replayed from the journal.
	replay := r.Run(context.Background(), []Job{job})
	if !replay[0].Replayed {
		t.Fatal("repeat run did not replay from journal")
	}

	// Fresh: must simulate despite the journal entry, and not append.
	fresh := job
	fresh.Fresh = true
	before := j.Len()
	res := r.Run(context.Background(), []Job{fresh})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if res[0].Replayed || res[0].Cached {
		t.Fatal("fresh run served from storage")
	}
	if j.Len() != before {
		t.Fatal("fresh run wrote to the journal")
	}
	if res[0].Key != first[0].Key {
		t.Fatalf("Fresh changed the fingerprint: %q vs %q", res[0].Key, first[0].Key)
	}
	a, _ := json.Marshal(first[0].Res)
	b, _ := json.Marshal(res[0].Res)
	if string(a) != string(b) {
		t.Fatal("fresh re-execution diverged from the original run")
	}
}
