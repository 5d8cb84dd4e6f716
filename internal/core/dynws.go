// Dynamic Warped-Slicer: the paper's baseline obtains scalability curves
// by profiling kernels *online* during concurrent execution — "running
// different numbers of TBs on SMs (1 TB on one SM, 2 TBs on a second SM
// and so on), where each SM is allocated to execute TBs from one kernel
// and time sharing of SMs is applied if the total number of possible TB
// configurations from all co-running kernels is more than the number of
// SMs" (Section 2.5).
//
// DynWS drives exactly that protocol through the GPU hook: profiling
// rounds assign each SM one (kernel, TB-count) configuration, let
// residency settle, measure IPC over a window, then move to the next
// round until every configuration is covered. The measured curves feed
// the same sweet-spot search as the static variant, and the chosen
// partition is applied to every SM for the rest of the run. A search
// that fails ends the run with its error: there is no fallback
// partition.

package core

import (
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

// dynAssign is one SM's profiling configuration.
type dynAssign struct {
	kernel int
	tbs    int
}

// DynWS is the online profiling controller. Create one per run and run
// its Hook from a gpu.Periodic observer (the period must divide the
// settle and window times; 1024 works).
type DynWS struct {
	cfg   *config.Config
	descs []*kern.Desc

	// SettleCycles is how long residency drains after a quota change
	// before measurement starts. WindowCycles is the measurement window.
	SettleCycles int64
	WindowCycles int64

	rounds [][]dynAssign
	curves [][]float64

	round      int
	phase      int // 0 settle, 1 measure
	phaseStart int64
	baseline   []uint64 // per-SM instruction counts at window start
	started    bool

	// Partition is the chosen per-kernel TB allocation once profiling
	// completes (nil before).
	Partition []int
	// TheoreticalWS is the sweet-spot sum of normalized measured IPCs.
	TheoreticalWS float64
}

// NewDynWS plans the profiling schedule for the given workload.
func NewDynWS(cfg *config.Config, descs []*kern.Desc) *DynWS {
	d := &DynWS{
		cfg:          cfg,
		descs:        descs,
		SettleCycles: 4 * 1024,
		WindowCycles: 12 * 1024,
		curves:       make([][]float64, len(descs)),
	}
	// Enumerate every configuration: kernel k at 1..maxTBs(k).
	var all []dynAssign
	for k, desc := range descs {
		max := desc.MaxTBsPerSM(cfg)
		d.curves[k] = make([]float64, max)
		for n := 1; n <= max; n++ {
			all = append(all, dynAssign{kernel: k, tbs: n})
		}
	}
	// Time-share: chunk configurations into rounds of NumSMs.
	for len(all) > 0 {
		n := cfg.NumSMs
		if n > len(all) {
			n = len(all)
		}
		d.rounds = append(d.rounds, all[:n])
		all = all[n:]
	}
	return d
}

// ProfilingCycles returns the total length of the profiling phase.
func (d *DynWS) ProfilingCycles() int64 {
	return int64(len(d.rounds)) * (d.SettleCycles + d.WindowCycles)
}

// Hook drives the controller; run it from a gpu.Periodic observer
// whose period divides SettleCycles and WindowCycles. Its first call
// starts profiling, and the call ProfilingCycles later applies the
// partition or returns the sweet-spot search's error.
func (d *DynWS) Hook(g *gpu.GPU) error {
	if d.Partition != nil {
		return nil
	}
	cycle := g.Cycle()
	if !d.started {
		d.started = true
		d.phase = 0
		d.phaseStart = cycle
		d.applyRound(g)
		return nil
	}
	switch d.phase {
	case 0: // settling
		if cycle-d.phaseStart >= d.SettleCycles {
			d.phase = 1
			d.phaseStart = cycle
			d.snapshot(g)
		}
	case 1: // measuring
		if cycle-d.phaseStart >= d.WindowCycles {
			d.record(g, cycle-d.phaseStart)
			d.round++
			if d.round >= len(d.rounds) {
				return d.finish(g)
			}
			d.phase = 0
			d.phaseStart = cycle
			d.applyRound(g)
		}
	}
	return nil
}

// applyRound points each SM at its profiling configuration. SMs beyond
// the round's configurations idle on an even partition so they keep
// contributing realistic memory traffic.
func (d *DynWS) applyRound(g *gpu.GPU) {
	assigns := d.rounds[d.round]
	even := EvenQuota(d.cfg, d.descs)
	for i, s := range g.SMs {
		row := make([]int, len(d.descs))
		if i < len(assigns) {
			row[assigns[i].kernel] = assigns[i].tbs
		} else {
			copy(row, even)
		}
		s.SetQuota(row)
		s.Drain()
	}
}

func (d *DynWS) snapshot(g *gpu.GPU) {
	assigns := d.rounds[d.round]
	if d.baseline == nil {
		d.baseline = make([]uint64, d.cfg.NumSMs)
	}
	for i := range assigns {
		d.baseline[i] = g.SMs[i].K[assigns[i].kernel].Instrs()
	}
}

func (d *DynWS) record(g *gpu.GPU, window int64) {
	assigns := d.rounds[d.round]
	for i, a := range assigns {
		instrs := g.SMs[i].K[a.kernel].Instrs() - d.baseline[i]
		d.curves[a.kernel][a.tbs-1] = float64(instrs) / float64(window)
	}
}

// finish runs the sweet-spot search on the measured curves and applies
// the partition everywhere, or returns the search's error (a kernel
// that measured zero IPC in every configuration has no sweet spot).
func (d *DynWS) finish(g *gpu.GPU) error {
	row, theo, err := SweetSpot(d.cfg, d.descs, d.curves)
	if err != nil {
		return err
	}
	d.Partition, d.TheoreticalWS = row, theo
	for _, s := range g.SMs {
		s.SetQuota(row)
	}
	return nil
}
