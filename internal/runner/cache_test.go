package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	gcke "repro"
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
	jobs := testJobs(t)[:3]
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
	jobs := testJobs(t)[:2]
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
	warm := r2.Run(context.Background(), testJobs(t)[:2])
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

// parentJournalKeys are the keys the lines of parent-journal.jsonl
// carry: the fingerprints of parentJournalJobs, in order, in the format
// of the commit that wrote it.
var parentJournalKeys = []string{
	"j1-2015cce37ee9ae961377d1ef4fa6d7930f2950bd8d67eadd42b8f19f5896cf68",
	"j1-22656bff1d13a8e2cbea02b821d9381a7c4ec207e05438b6ca070a8f74da1d20",
	"j1-438e6fe9cadab10d924ea6acf19c19d9dd888834093ed4d0f022bc1bc3ff52ba",
	"j1-0f6d62d0d241d623a9fbb6e661914b55b2d643f563b7a3f669c0603eaa045b7a",
}

// parentJournalJobs are the four jobs testdata/parent-journal.jsonl in
// internal/resultcache holds: the journal the commit before the one
// store wrote for `ckesim -sms 1 -cycles 3000 -profile-cycles 2000
// -kernels 'bp,ks;bp,sv' -scheme 'even;ws' -journal`.
func parentJournalJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, names := range [][]string{{"bp", "ks"}, {"bp", "sv"}} {
		var ks []gcke.Kernel
		for _, n := range names {
			k, err := gcke.Benchmark(n)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		for _, p := range []gcke.PartitionKind{gcke.PartitionEven, gcke.PartitionWarpedSlicer} {
			jobs = append(jobs, Job{Config: gcke.ScaledConfig(1), Cycles: 3000, ProfileCycles: 2000,
				Kernels: ks, Scheme: gcke.Scheme{Partition: p}})
		}
	}
	return jobs
}

// TestOneSyncPerFirstSeenJob counts the fsyncs at the store's fault
// hook: a first-seen job costs exactly one, a repeat none, and a run
// resumed from a journal an earlier commit wrote serves every job from
// the file with none. The fingerprints have since moved (machine and
// scheme fields were deleted), so the journal's lines are rekeyed in
// memory to today's keys of the same jobs; their values and checksums,
// the bytes the earlier commit stored, are served as they are.
func TestOneSyncPerFirstSeenJob(t *testing.T) {
	var syncs int
	count := func(op, key string) error {
		if op == "sync" {
			syncs++
		}
		return nil
	}
	store, err := resultcache.Open(resultcache.Options{Path: filepath.Join(t.TempDir(), "j.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.FaultHook = count
	r := New(1)
	r.Cache = store
	jobs := testJobs(t)[:2]
	for pass, want := range []int{len(jobs), 0} {
		syncs = 0
		res := r.Run(context.Background(), jobs)
		if err := FirstErr(res); err != nil {
			t.Fatal(err)
		}
		if syncs != want || res[0].Cached != (pass > 0) {
			t.Fatalf("pass %d: %d syncs (cached=%v), want %d", pass, syncs, res[0].Cached, want)
		}
	}

	fixture, err := os.ReadFile("../resultcache/testdata/parent-journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	jobs = parentJournalJobs(t)
	for i, old := range parentJournalKeys {
		key, err := jobs[i].Key()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(fixture, []byte(old)) {
			t.Fatalf("the fixture has no line keyed %s", old)
		}
		fixture = bytes.ReplaceAll(fixture, []byte(old), []byte(key))
	}
	path := filepath.Join(t.TempDir(), "parent.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := resultcache.Open(resultcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	resumed.FaultHook = count
	syncs = 0
	testJobHook = func(i int, j *Job) { t.Errorf("job %d simulated on a resumed run", i) }
	defer func() { testJobHook = nil }()
	r = New(1)
	r.Cache = resumed
	res := r.Run(context.Background(), jobs)
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if !res[i].Cached {
			t.Fatalf("job %d (%s) not served from the parent journal", i, res[i].Key)
		}
	}
	if syncs != 0 {
		t.Fatalf("a resumed run synced %d times, want 0", syncs)
	}
}

// TestFreshBypassesCacheAndJournal: a Fresh job re-simulates even when
// the store already holds its fingerprint, and writes nothing back.
func TestFreshBypassesCacheAndJournal(t *testing.T) {
	j, err := resultcache.Open(resultcache.Options{Path: filepath.Join(t.TempDir(), "fresh.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	job := testJob([]gcke.Kernel{bp, sv}, gcke.Scheme{Partition: gcke.PartitionEven})

	r := New(1)
	r.Cache = j
	first := r.Run(context.Background(), []Job{job})
	if err := FirstErr(first); err != nil {
		t.Fatal(err)
	}
	if first[0].Cached {
		t.Fatal("first run served from the store")
	}

	// Same job again: served from the store.
	replay := r.Run(context.Background(), []Job{job})
	if !replay[0].Cached {
		t.Fatal("repeat run not served from the store")
	}

	// Fresh: must simulate despite the stored entry, and not append.
	fresh := job
	fresh.Fresh = true
	before := j.Stats()
	res := r.Run(context.Background(), []Job{fresh})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if res[0].Cached {
		t.Fatal("fresh run served from storage")
	}
	if after := j.Stats(); after != before || j.Len() != 1 {
		t.Fatalf("fresh run touched the store: %+v -> %+v, Len %d", before, after, j.Len())
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
