package gcke_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	gcke "repro"
	"repro/internal/runner"
)

// TestProfilesKeyOnTheWholeKernel: a profile belongs to the whole kernel
// descriptor, as a job's fingerprint does, not to its name. A variant of
// bp that keeps the name gets its own profiles from a session that has
// profiled bp, and its own normalization from a runner that has run bp:
// each equals what a fresh session or runner returns.
func TestProfilesKeyOnTheWholeKernel(t *testing.T) {
	const cycles = 8_000
	cfg := gcke.ScaledConfig(2)
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	variant := bp
	variant.CPerM = 1
	variant.MaxPendingLoads = 1
	variant.ReuseProb = 0
	variant.FootprintLines *= 8

	marshal := func(t *testing.T, v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// profiles is what a session returns for d: its isolated run and its
	// scalability curve.
	profiles := func(t *testing.T, s *gcke.Session, d gcke.Kernel) []byte {
		t.Helper()
		r, err := s.RunIsolated(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Curve(d)
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, []any{r, c})
	}

	t.Run("session", func(t *testing.T) {
		s := gcke.NewSession(cfg, cycles)
		for i, d := range []gcke.Kernel{bp, variant} {
			if got, want := profiles(t, s, d), profiles(t, gcke.NewSession(cfg, cycles), d); !bytes.Equal(got, want) {
				t.Errorf("kernel %d: profiles differ from a fresh session's", i)
			}
		}
	})

	t.Run("runner", func(t *testing.T) {
		job := func(d gcke.Kernel) runner.Job {
			return runner.Job{Config: cfg, Cycles: cycles, Kernels: []gcke.Kernel{d, sv}, Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
		}
		results := runner.New(1).Run(context.Background(), []runner.Job{job(bp), job(variant)})
		for i, d := range []gcke.Kernel{bp, variant} {
			alone := runner.New(1).Run(context.Background(), []runner.Job{job(d)})
			if err := runner.FirstErr(append(alone, results[i])); err != nil {
				t.Fatal(err)
			}
			got, want := results[i].Res, alone[0].Res
			if !bytes.Equal(marshal(t, got), marshal(t, want)) {
				t.Errorf("job %d: weighted speedup %s beside bp's job, %s alone", i,
					fmt.Sprint(got.WeightedSpeedup()), fmt.Sprint(want.WeightedSpeedup()))
			}
		}
	})
}
