package runner

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	gcke "repro"
	"repro/internal/journal"
	"repro/internal/resultcache"
)

func seriesJob(series bool) Job {
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	return Job{Config: gcke.ScaledConfig(1), Cycles: 6_000, ProfileCycles: 4_000, Kernels: []gcke.Kernel{bp, sv},
		Scheme: gcke.Scheme{Partition: gcke.PartitionEven, Limiting: gcke.LimitDMIL, Series: series}}
}

// TestSeriesJobKey: a Series job's result carries the in-flight and
// limit samples that a result stored under the earlier fingerprint lacks,
// so its fingerprint moved; every other job's is the one it had.
func TestSeriesJobKey(t *testing.T) {
	for _, c := range []struct {
		series bool
		before string
	}{
		{false, "j1-638849c167737d53f0a76be10cb118a7a3e22f6a0fce235b5e20ba8df1cb852a"},
		{true, "j1-a18416dee396eb712ec89266acf7a5582b83c29f76262701820eedb22d441f49"},
	} {
		j := seriesJob(c.series)
		key, err := j.Key()
		if err != nil {
			t.Fatal(err)
		}
		if moved := key != c.before; moved != c.series {
			t.Errorf("Series=%v: key %s, before %s", c.series, key, c.before)
		}
	}
}

// TestSeriesTravelsThroughJournalAndCache: the sampled series come back
// whole from a journal replay and from a persistent cache.
func TestSeriesTravelsThroughJournalAndCache(t *testing.T) {
	dir := t.TempDir()
	open := func() (*journal.Journal, *resultcache.Store) {
		t.Helper()
		j, err := journal.Open(filepath.Join(dir, "j.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := resultcache.Open(resultcache.Options{Path: filepath.Join(dir, "c.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		return j, c
	}
	run := func(journaled, cached bool) Result {
		t.Helper()
		j, c := open()
		defer j.Close()
		defer c.Close()
		r := New(1)
		if journaled {
			r.Journal = j
		}
		if cached {
			r.Cache = c
		}
		res := r.Run(context.Background(), []Job{seriesJob(true)})[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	fresh := run(true, true)
	for k, kr := range fresh.Res.Kernels {
		if len(kr.Series.Inflight) == 0 || len(kr.Series.Limit) == 0 {
			t.Fatalf("kernel %d: simulated result has no in-flight or limit samples", k)
		}
	}
	for _, got := range []Result{run(true, false), run(false, true)} {
		if !got.Replayed && !got.Cached {
			t.Fatal("second run simulated instead of replaying or hitting the cache")
		}
		if !reflect.DeepEqual(got.Res.RunResult, fresh.Res.RunResult) {
			t.Fatalf("replayed=%v cached=%v: series differ from the simulated result", got.Replayed, got.Cached)
		}
	}
}
