package gpu_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/xrand"
)

// TestFuzzRandomWorkloads drives the full machine with randomly drawn
// kernel descriptors under randomly drawn schemes and checks the global
// invariants: no deadlock (every kernel with a quota makes progress or
// the machine is legitimately saturated), determinism, and bounded
// counters. This is the simulator's broadest property test.
func TestFuzzRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	master := xrand.New(2026)
	for trial := 0; trial < 12; trial++ {
		seed := master.Uint64()
		rng := xrand.New(seed)
		cfg := config.Scaled(rng.Intn(3) + 1)
		cfg.Seed = rng.Uint64()

		nk := rng.Intn(2) + 2 // 2 or 3 kernels
		var descs []*kern.Desc
		for i := 0; i < nk; i++ {
			d := kern.RandomDesc(rng, &cfg)
			descs = append(descs, &d)
		}
		if err := sm.Validate(&cfg, descs); err != nil {
			t.Fatalf("trial %d: random descriptor invalid: %v", trial, err)
		}
		quotaRow := core.EvenQuota(&cfg, descs)

		opts := &gpu.Options{
			Cycles: 15_000,
			Quota:  gpu.UniformQuota(cfg.NumSMs, quotaRow),
		}
		switch rng.Intn(4) {
		case 1:
			opts.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, nil) }
		case 2:
			opts.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
		case 3:
			opts.UCP = true
			opts.Observers = []gpu.Observer{gpu.Repartition(0, 4000)}
		}

		run := func() *gpu.GPU {
			g, err := gpu.New(cfg, clone(descs), opts)
			if err != nil {
				t.Fatalf("trial %d (seed %d): %v", trial, seed, err)
			}
			g.RunCycles(opts)
			return g
		}
		g1 := run()
		r1 := g1.Result()

		total := uint64(0)
		for k, kr := range r1.Kernels {
			total += kr.Instrs
			// Conservation: requests counted at the LSU must not exceed
			// L1 accesses recorded by the cache.
			if kr.Requests != kr.L1D.Accesses {
				t.Fatalf("trial %d (seed %d) kernel %d: LSU requests %d != L1 accesses %d",
					trial, seed, k, kr.Requests, kr.L1D.Accesses)
			}
			if kr.L1D.Hits+kr.L1D.Misses != kr.L1D.Accesses {
				t.Fatalf("trial %d kernel %d: hits+misses != accesses", trial, k)
			}
		}
		if total == 0 {
			t.Fatalf("trial %d (seed %d): machine fully wedged", trial, seed)
		}

		// Determinism: the identical configuration replays identically.
		g2 := run()
		r2 := g2.Result()
		for k := range r1.Kernels {
			if r1.Kernels[k].Instrs != r2.Kernels[k].Instrs ||
				r1.Kernels[k].L1D.Misses != r2.Kernels[k].L1D.Misses {
				t.Fatalf("trial %d (seed %d): nondeterministic replay", trial, seed)
			}
		}
	}
}

func clone(descs []*kern.Desc) []*kern.Desc {
	out := make([]*kern.Desc, len(descs))
	for i, d := range descs {
		dd := *d
		out[i] = &dd
	}
	return out
}
