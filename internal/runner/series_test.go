package runner

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	gcke "repro"
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
// so its fingerprint moved; every other job's is the one it had. The
// before keys are in today's format (no Warmup, SMKEpoch or UCPInterval
// in the scheme), the Series one computed without the Samples marker.
func TestSeriesJobKey(t *testing.T) {
	for _, c := range []struct {
		series bool
		before string
	}{
		{false, "j1-cefcacbfa7c66bef308658b1cbde435a40a8e9c9060092e5aacacfb36fe7f820"},
		{true, "j1-4c7fc25fa0912b8d3da2fec9e3bf6b8d7d7570400b9ec2a1e5ef6f5e44e216a7"},
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
// whole from the result store, both from its resident bytes and from its
// file after a restart.
func TestSeriesTravelsThroughJournalAndCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	run := func() Result {
		t.Helper()
		s, err := resultcache.Open(resultcache.Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r := New(1)
		r.Cache = s
		var res Result
		for range 2 { // the second is served from the resident bytes
			if res = r.Run(context.Background(), []Job{seriesJob(true)})[0]; res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		return res
	}
	fresh := run()
	for k, kr := range fresh.Res.Kernels {
		if len(kr.Series.Inflight) == 0 || len(kr.Series.Limit) == 0 {
			t.Fatalf("kernel %d: stored result has no in-flight or limit samples", k)
		}
	}
	restarted := run()
	if !fresh.Cached || !restarted.Cached {
		t.Fatal("a repeat simulated instead of being served from the store")
	}
	if !reflect.DeepEqual(restarted.Res.RunResult, fresh.Res.RunResult) {
		t.Fatal("series read back from the file differ from the stored result")
	}
}
