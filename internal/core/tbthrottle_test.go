package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

func TestTBThrottleReducesQuotaUnderStall(t *testing.T) {
	cfg := config.Scaled(2)
	bp, _ := kern.ByName("bp")
	ks, _ := kern.ByName("ks")
	descs := []*kern.Desc{&bp, &ks}
	target := []int{7, 5}
	tt := NewTBThrottle(target)
	opts := &gpu.Options{
		Cycles:    120_000,
		Quota:     gpu.UniformQuota(cfg.NumSMs, target),
		Observers: []gpu.Observer{gpu.Periodic(0, 1024, tt.Hook)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	// Under bp+ks the pipeline stalls heavily; the heavy misser must
	// have lost TBs on at least one SM.
	reduced := false
	for _, s := range g.SMs {
		q := s.Quota()
		if q[0] < target[0] || q[1] < target[1] {
			reduced = true
		}
		for k, v := range q {
			if v < 1 || v > target[k] {
				t.Fatalf("quota %v out of [1, target] bounds", q)
			}
		}
	}
	if !reduced {
		t.Fatal("throttle never engaged despite heavy stalls")
	}
}

func TestTBThrottleRecoversWhenHealthy(t *testing.T) {
	cfg := config.Scaled(1)
	bp, _ := kern.ByName("bp")
	descs := []*kern.Desc{&bp}
	target := []int{8}
	tt := NewTBThrottle(target)
	// Start below target with a healthy pipeline: quota must recover.
	opts := &gpu.Options{
		Cycles:    60_000,
		Quota:     gpu.UniformQuota(1, []int{2}),
		Observers: []gpu.Observer{gpu.Periodic(0, 1024, tt.Hook)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	if q := g.SMs[0].Quota()[0]; q < 6 {
		t.Fatalf("quota did not recover toward target: %d", q)
	}
}
