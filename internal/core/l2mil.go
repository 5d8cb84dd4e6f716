// L2MIL: memory instruction limiting driven by congestion *below* the
// L1 — the paper's Section 4.5 future work ("stalls encountered at the
// L1-interconnect and/or interconnect-L2 queues can be incorporated to
// obtain memory instruction limiting numbers").
//
// A single controller watches every L2 partition's per-kernel
// reservation failures plus the DRAM queue occupancy. Each interval it
// identifies the kernels responsible for at least an average share of
// the L2-side failures while the lower hierarchy is congested, halves
// their in-flight access limits machine-wide, and reopens everyone
// otherwise. The limits gate memory instruction issue at every SM, just
// like DMIL, but the feedback signal comes from the shared levels —
// useful when the interference point is the L2/DRAM rather than the
// private L1 (e.g. under cache bypassing).

package core

import (
	"repro/internal/gpu"
	"repro/internal/sm"
)

// L2MIL is the shared controller/limiter. Register the same instance as
// every SM's Limiter and install Hook as the gpu.Options hook.
type L2MIL struct {
	limits  []int
	recover []int

	lastRsFail []uint64
	lastMisses []uint64
	lastComp   int64
}

// dramCongested is the DRAM queue occupancy (summed over channels) at
// which the lower hierarchy counts as congested even without L2
// reservation failures.
const dramCongested = 64

// NewL2MIL builds the controller for n kernel slots.
func NewL2MIL(n int) *L2MIL {
	l := &L2MIL{
		limits:     make([]int, n),
		recover:    make([]int, n),
		lastRsFail: make([]uint64, n),
		lastMisses: make([]uint64, n),
	}
	for i := range l.limits {
		l.limits[i] = milgPeakMax + 1
		l.recover[i] = 1
	}
	return l
}

// Allow implements sm.Limiter.
func (l *L2MIL) Allow(kernel, inflight int) bool {
	return inflight < l.limits[kernel]
}

func (l *L2MIL) OnRequest(kernel int)              {}
func (l *L2MIL) OnRsFail(kernel int)               {}
func (l *L2MIL) NoteInflight(kernel, inflight int) {}
func (l *L2MIL) Tick(cycle int64)                  {}

var _ sm.Limiter = (*L2MIL)(nil)

// Limit exposes kernel k's current machine-wide limit.
func (l *L2MIL) Limit(k int) int { return l.limits[k] }

// Hook drives the controller; run it from a gpu.Periodic observer
// whose period divides the 4096-cycle decision period.
func (l *L2MIL) Hook(g *gpu.GPU) error {
	cycle := g.Cycle()
	if cycle-l.lastComp < milgInterval {
		return nil
	}
	elapsed := cycle - l.lastComp
	if elapsed <= 0 {
		elapsed = 1
	}
	l.lastComp = cycle

	n := len(l.limits)
	deltas := make([]int64, n)
	var total int64
	for k := 0; k < n; k++ {
		st := g.L2KernelStats(k)
		rsDelta := int64(st.RsFail - l.lastRsFail[k])
		missDelta := int64(st.Misses - l.lastMisses[k])
		l.lastRsFail[k] = st.RsFail
		l.lastMisses[k] = st.Misses
		// Blame is L2 reservation-failure cycles when present; when the
		// congestion shows up only as a full DRAM queue, blame the L2
		// miss (DRAM traffic) contribution instead.
		deltas[k] = rsDelta*16 + missDelta
		total += deltas[k]
	}
	// The L2 heads retry once per cycle per partition, so failures are
	// normalized by interval cycles times partitions.
	parts := int64(g.Config().NumMemParts)
	congested := total >= elapsed*parts || g.DRAMQueueLen() >= dramCongested
	for k := 0; k < n; k++ {
		switch {
		case congested && deltas[k]*int64(n) >= total && total > 0:
			l.limits[k] >>= 1
			if l.limits[k] < 1 {
				l.limits[k] = 1
			}
			l.recover[k] = 1
		case congested:
			// Hold.
		default:
			l.limits[k] += l.recover[k]
			if l.limits[k] > milgPeakMax+1 {
				l.limits[k] = milgPeakMax + 1
			}
			if l.recover[k] < 16 {
				l.recover[k] *= 2
			}
		}
	}
	return nil
}
