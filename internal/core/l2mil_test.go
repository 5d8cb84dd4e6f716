package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

func TestL2MILStartsOpen(t *testing.T) {
	l := NewL2MIL(2)
	if !l.Allow(0, 100) || !l.Allow(1, 100) {
		t.Fatal("fresh L2MIL must not limit")
	}
	if l.Limit(0) != milgPeakMax+1 {
		t.Fatalf("initial limit %d", l.Limit(0))
	}
}

func TestL2MILThrottlesDRAMBoundKernel(t *testing.T) {
	cfg := config.Scaled(2)
	bp, err := kern.ByName("bp")
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kern.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	descs := []*kern.Desc{&bp, &ks}
	l := NewL2MIL(2)
	opts := &gpu.Options{
		Cycles: 120_000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{7, 5}),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter { return l },
		},
		Observers: []gpu.Observer{gpu.Periodic(0, 1024, l.Hook)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	// ks floods the L2/DRAM; its machine-wide limit must have been cut
	// well below the open value.
	if l.Limit(1) > milgPeakMax/2 {
		t.Fatalf("ks limit = %d, expected L2-side throttling", l.Limit(1))
	}
	r := g.Result()
	if r.Kernels[0].Instrs == 0 || r.Kernels[1].Instrs == 0 {
		t.Fatal("a kernel starved under L2MIL")
	}
}

func TestL2MILRecoversWhenHealthy(t *testing.T) {
	cfg := config.Scaled(1)
	l := NewL2MIL(1)
	l.limits[0] = 4
	bp, _ := kern.ByName("bp")
	descs := []*kern.Desc{&bp}
	opts := &gpu.Options{
		Cycles: 60_000,
		Quota:  gpu.UniformQuota(1, []int{2}), // light load: healthy L2
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter { return l },
		},
		Observers: []gpu.Observer{gpu.Periodic(0, 1024, l.Hook)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	if l.Limit(0) <= 4 {
		t.Fatalf("limit did not recover from 4: %d", l.Limit(0))
	}
}
