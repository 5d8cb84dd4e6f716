package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

func dynPair(t *testing.T) (config.Config, []*kern.Desc) {
	t.Helper()
	cfg := config.Scaled(4)
	a, err := kern.ByName("bp")
	if err != nil {
		t.Fatal(err)
	}
	b, err := kern.ByName("sv")
	if err != nil {
		t.Fatal(err)
	}
	return cfg, []*kern.Desc{&a, &b}
}

func TestDynWSSchedule(t *testing.T) {
	cfg, descs := dynPair(t)
	d := NewDynWS(&cfg, descs)
	// bp has 12 configurations, sv 16: 28 total over 4 SMs = 7 rounds.
	if got := len(d.rounds); got != 7 {
		t.Fatalf("rounds = %d, want 7", got)
	}
	seen := map[dynAssign]bool{}
	for _, round := range d.rounds {
		if len(round) > cfg.NumSMs {
			t.Fatalf("round with %d assignments on %d SMs", len(round), cfg.NumSMs)
		}
		for _, a := range round {
			if seen[a] {
				t.Fatalf("configuration %+v profiled twice", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != 28 {
		t.Fatalf("covered %d configurations, want 28", len(seen))
	}
}

func TestDynWSConverges(t *testing.T) {
	cfg, descs := dynPair(t)
	d := NewDynWS(&cfg, descs)
	opts := &gpu.Options{
		Cycles:    d.ProfilingCycles() + 50_000,
		Quota:     gpu.UniformQuota(cfg.NumSMs, EvenQuota(&cfg, descs)),
		Observers: []gpu.Observer{gpu.Periodic(0, 1024, d.Hook)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunCycles(opts); err != nil {
		t.Fatal(err)
	}
	if len(d.Partition) != 2 || d.Partition[0] < 1 || d.Partition[1] < 1 {
		t.Fatalf("bad partition %v", d.Partition)
	}
	if !Fits(&cfg, descs, d.Partition) {
		t.Fatalf("partition %v infeasible", d.Partition)
	}
	// Every SM must hold the final uniform quota.
	for i, s := range g.SMs {
		q := s.Quota()
		if q[0] != d.Partition[0] || q[1] != d.Partition[1] {
			t.Fatalf("SM %d quota %v != partition %v", i, q, d.Partition)
		}
	}
	// Measured curves: bp's IPC at its max TBs must exceed its 1-TB IPC
	// (near-linear scaling).
	bpCurve := d.curves[0]
	if bpCurve[len(bpCurve)-1] <= bpCurve[0] {
		t.Fatalf("bp measured curve not increasing: %v", bpCurve)
	}
	if d.TheoreticalWS <= 0.5 {
		t.Fatalf("theoretical WS = %v", d.TheoreticalWS)
	}
}

func TestDynWSProfilingCyclesBound(t *testing.T) {
	cfg, descs := dynPair(t)
	d := NewDynWS(&cfg, descs)
	want := int64(7) * (d.SettleCycles + d.WindowCycles)
	if got := d.ProfilingCycles(); got != want {
		t.Fatalf("profiling cycles = %d, want %d", got, want)
	}
}

// TestDynWSSweetSpotErrorEndsTheRun: a kernel that measured zero IPC in
// every configuration has no sweet spot, and the hook call that would
// apply the partition returns the search's error instead of falling
// back to another partition.
func TestDynWSSweetSpotErrorEndsTheRun(t *testing.T) {
	cfg, descs := dynPair(t)
	d := NewDynWS(&cfg, descs)
	g, err := gpu.New(cfg, descs, &gpu.Options{Quota: gpu.UniformQuota(cfg.NumSMs, EvenQuota(&cfg, descs))})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// The controller at the end of its last window, on a machine that
	// has issued nothing: every measured IPC is zero.
	d.started, d.phase, d.round = true, 1, len(d.rounds)-1
	d.phaseStart = g.Cycle() - d.WindowCycles
	d.baseline = make([]uint64, cfg.NumSMs)
	err = d.Hook(g)
	if err == nil || !strings.Contains(err.Error(), "non-positive scalability curve") {
		t.Fatalf("Hook = %v, want the sweet-spot search's error", err)
	}
	if d.Partition != nil || d.TheoreticalWS != 0 {
		t.Fatalf("failed search left partition %v, theoretical WS %v", d.Partition, d.TheoreticalWS)
	}
}
