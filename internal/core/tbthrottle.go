// TB-granularity dynamic throttling, in the style of the thread-block
// throttling literature the paper positions itself against (Kayiran et
// al.'s DYNCTA; Section 5: "our schemes do not throttle any TBs or
// warps but limit the number of in-flight memory instructions"). The
// controller watches each SM's memory-pipeline stall fraction and
// adjusts per-kernel TB quotas: under heavy stalls the kernel
// generating the most L1D misses loses a thread block; when the
// pipeline is healthy, quotas recover toward the scheme's TB partition.
//
// The paper argues this granularity is too coarse — "WS loses the
// memory instruction limiting capability when there is only one TB from
// the memory-intensive kernel" — and the harness's abl-tbt comparison
// measures exactly that.

package core

import (
	"repro/internal/gpu"
)

// TBThrottle is the controller. Install Hook with an interval dividing
// Period.
type TBThrottle struct {
	// Target is the TB partition to recover toward (the scheme's
	// sweet-spot allocation).
	Target []int
	// Period is the decision interval in cycles.
	Period int64
	// StallCut is the per-SM stall fraction (per mille) above which a
	// TB is removed from the heaviest misser.
	StallCutPerMille int64

	lastComp   int64
	lastStall  []uint64
	lastMisses [][]uint64
}

// NewTBThrottle builds the controller for the given target partition.
func NewTBThrottle(target []int) *TBThrottle {
	return &TBThrottle{
		Target:           append([]int(nil), target...),
		Period:           8192,
		StallCutPerMille: 250,
	}
}

// Hook drives the controller; run it from a gpu.Periodic observer.
func (t *TBThrottle) Hook(g *gpu.GPU) error {
	cycle := g.Cycle()
	if cycle-t.lastComp < t.Period {
		return nil
	}
	elapsed := cycle - t.lastComp
	if elapsed <= 0 {
		elapsed = 1
	}
	t.lastComp = cycle

	n := len(t.Target)
	if t.lastStall == nil {
		t.lastStall = make([]uint64, len(g.SMs))
		t.lastMisses = make([][]uint64, len(g.SMs))
		for i := range t.lastMisses {
			t.lastMisses[i] = make([]uint64, n)
		}
	}
	for i, s := range g.SMs {
		// The LSU stalls one cycle per reservation failure.
		var stall uint64
		missDelta := make([]int64, n)
		var worst, worstDelta int64 = -1, -1
		for k := 0; k < n; k++ {
			stall += s.L1.Stats[k].RsFail
			m := s.L1.Stats[k].Misses
			missDelta[k] = int64(m - t.lastMisses[i][k])
			t.lastMisses[i][k] = m
			if missDelta[k] > worstDelta {
				worst, worstDelta = int64(k), missDelta[k]
			}
		}
		stallDelta := stall - t.lastStall[i]
		t.lastStall[i] = stall
		quota := append([]int(nil), s.Quota()...)
		if int64(stallDelta)*1000 >= elapsed*t.StallCutPerMille {
			// Unhealthy: remove one TB from the heaviest misser.
			if worst >= 0 && quota[worst] > 1 {
				quota[worst]--
			}
		} else {
			// Healthy: restore one TB toward the target partition.
			for k := 0; k < n; k++ {
				if quota[k] < t.Target[k] {
					quota[k]++
					break
				}
			}
		}
		s.SetQuota(quota)
	}
	return nil
}
