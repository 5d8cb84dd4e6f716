// The warp-readiness index: derived state that lets the issue stages
// skip warps and whole schedulers that cannot issue, without reading the
// Warp structs. A memory-intensive kernel leaves most resident warps
// behind a load barrier for hundreds of cycles; re-discovering that by
// scanning every Warp every cycle was over half the simulator's host
// time.
//
// Each warp slot carries a class computed from the warp state that only
// changes when the warp itself launches, issues, has a load return, or
// retires (classOf). Each scheduler carries, per class, the number of
// its warps in that class and a lower bound on their earliest ReadyAt.
// The index is a necessary-condition pre-filter only: readyForMem and
// readyForCompute remain the authority and run, in the original order,
// on every warp the filter lets through, so the Limiter, IssueGate and
// MemIssuePolicy observe the identical call sequence.
//
// The index is derived: it is not part of Snapshot (Restore rebuilds it)
// and CheckInvariants compares it against a recomputation.

package sm

import (
	"fmt"

	"repro/internal/kern"
)

// warpClass is what a warp could issue next as far as its own state
// decides: nothing, a memory instruction, or an ALU/SFU/shared-memory
// instruction.
type warpClass uint8

const (
	// classBlocked: slot free, warp done issuing, behind its load
	// barrier, or a load at the kernel's pending-load cap.
	classBlocked warpClass = iota
	classMem
	classCompute
	numClasses
)

// schedReady is one scheduler's share of the index. Entry classBlocked
// of either array is unused.
type schedReady struct {
	n [numClasses]int
	// earliest[c] <= ReadyAt of every class-c warp of the scheduler. A
	// warp's ReadyAt only moves forward, so the bound stays valid
	// between updates; it is lowered when a warp enters the class and
	// made exact whenever a full scan of the class finds nothing.
	earliest [numClasses]int64
}

// classOf derives a warp's class from its state. These are exactly the
// checks of readyForMem/readyForCompute that precede any policy call
// and do not depend on the cycle or on SM-wide state.
func (s *SM) classOf(w *Warp) warpClass {
	if !w.Active || w.doneIssuing {
		return classBlocked
	}
	if w.outN > 0 && w.minBarrier() <= w.IssuedInstrs {
		return classBlocked
	}
	switch w.NextKind {
	case kern.MemLoad:
		if w.outN >= s.descs[w.Kernel].MaxPendingLoads {
			return classBlocked
		}
		return classMem
	case kern.MemStore:
		return classMem
	case kern.ALU, kern.SFU, kern.Smem:
		return classCompute
	}
	return classBlocked
}

// reclass brings the index up to date after the warp in slot changed
// state. Called from the five places that change what classOf reads:
// launchTB, advanceWarp, onTokenDone, finalizeWarp and Drain.
func (s *SM) reclass(slot int) {
	w := &s.warps[slot]
	old, c := s.wClass[slot], s.classOf(w)
	r := &s.ready[w.SchedID]
	if old != c {
		s.wClass[slot] = c
		if old != classBlocked {
			r.n[old]--
			s.cand[old]--
		}
		if c != classBlocked {
			r.n[c]++
			s.cand[c]++
		}
	}
	if c != classBlocked && (r.n[c] == 1 || w.ReadyAt < r.earliest[c]) {
		r.earliest[c] = w.ReadyAt
	}
}

// rebuildReady recomputes the whole index from warp state.
func (s *SM) rebuildReady() {
	s.cand = [numClasses]int{}
	clear(s.ready)
	clear(s.wClass) // classBlocked
	for si := range s.scheds {
		for _, slot := range s.scheds[si].warps {
			s.reclass(slot)
		}
	}
}

// checkReady compares the index with a recomputation from warp state:
// every slot's class, every scheduler's per-class counts, the SM totals,
// and that no candidate is ready before its scheduler's earliest bound.
func (s *SM) checkReady() error {
	var total [numClasses]int
	for si := range s.scheds {
		var n [numClasses]int
		for _, slot := range s.scheds[si].warps {
			w := &s.warps[slot]
			c := s.classOf(w)
			if s.wClass[slot] != c {
				return fmt.Errorf("warp %d: indexed class %d, state says %d", slot, s.wClass[slot], c)
			}
			n[c]++
			if c != classBlocked && w.ReadyAt < s.ready[si].earliest[c] {
				return fmt.Errorf("scheduler %d class %d: warp %d ready at %d, before the earliest bound %d",
					si, c, slot, w.ReadyAt, s.ready[si].earliest[c])
			}
		}
		for c := classMem; c < numClasses; c++ {
			if s.ready[si].n[c] != n[c] {
				return fmt.Errorf("scheduler %d class %d: indexed count %d, recount %d", si, c, s.ready[si].n[c], n[c])
			}
			total[c] += n[c]
		}
	}
	for c := classMem; c < numClasses; c++ {
		if s.cand[c] != total[c] {
			return fmt.Errorf("class %d: indexed SM total %d, recount %d", c, s.cand[c], total[c])
		}
	}
	// Slots outside every scheduler are free and must read blocked.
	for slot, c := range s.wClass {
		if c != classBlocked && !s.warps[slot].Active {
			return fmt.Errorf("free warp slot %d indexed as class %d", slot, c)
		}
	}
	return nil
}
