package sm

import (
	"repro/internal/config"
	"repro/internal/kern"
)

// The reference issue stage: the full scans the SM ran before the issue
// index existed, kept in test code only. They ask readyForMem /
// readyForCompute — every issue condition spelled out against the Warp
// struct, policies consulted per warp — about every resident warp of
// every scheduler and never read the index, so a warp the index hides or
// offers by mistake shows up as a diverging trace in the differential
// tests (differential_test.go). Everything after the scan — the policy
// pick, the issue itself — is the production code.

// TickReference is Tick with the reference issue stage. It keeps the
// index maintained (the shared issue code and wake update it) but
// ignores it.
func (s *SM) TickReference(cycle int64) {
	s.now = cycle
	s.gate.Tick(cycle)
	s.limiter.Tick(cycle)
	s.wake(cycle)
	s.drainCompletions(cycle)
	s.dispatch(cycle)
	s.lsuTick(cycle)
	memScheduler := s.issueMemFullScan(cycle)
	s.issueComputeFullScan(cycle, memScheduler)
}

// readyForMem reports whether warp w can issue its memory instruction.
func (s *SM) readyForMem(w *Warp, cycle int64) bool {
	if !w.Active || w.doneIssuing || w.lastCycle == cycle || w.ReadyAt > cycle {
		return false
	}
	if w.NextKind != kern.MemLoad && w.NextKind != kern.MemStore {
		return false
	}
	if w.outN > 0 && w.minBarrier() <= w.IssuedInstrs {
		return false
	}
	k := int(w.Kernel)
	d := s.descs[k]
	if w.NextKind == kern.MemLoad && w.outN >= d.MaxPendingLoads {
		return false
	}
	if !s.limiter.Allow(k, s.inflight[k]) {
		return false
	}
	return s.gate.CanIssue(k)
}

// readyForCompute reports whether warp w can issue an ALU or SFU
// instruction this cycle, given remaining port budgets.
func (s *SM) readyForCompute(w *Warp, cycle int64, aluLeft, sfuLeft int) bool {
	if !w.Active || w.doneIssuing || w.lastCycle == cycle || w.ReadyAt > cycle {
		return false
	}
	switch w.NextKind {
	case kern.ALU:
		if aluLeft <= 0 {
			return false
		}
	case kern.SFU:
		if sfuLeft <= 0 {
			return false
		}
	default:
		return false
	}
	if w.outN > 0 && w.minBarrier() <= w.IssuedInstrs {
		return false
	}
	return s.gate.CanIssue(int(w.Kernel))
}

func (s *SM) issueMemFullScan(cycle int64) int {
	if !s.lsuFree() {
		return -1
	}
	s.candKernels = s.candKernels[:0]
	nk := len(s.descs)
	for si := range s.scheds {
		sc := &s.scheds[si]
		if sc.issuedAt == cycle {
			continue
		}
		var seenHere uint64
		found := 0
		for _, slotW := range sc.warps {
			w := &s.warps[slotW]
			k := int(w.Kernel)
			if seenHere&(1<<uint(k)) != 0 {
				continue
			}
			if !s.readyForMem(w, cycle) {
				continue
			}
			seenHere |= 1 << uint(k)
			found++
			s.addMemCandidate(k, slotW, w.age)
			if found == nk {
				break
			}
		}
	}
	return s.issueMemCandidate(cycle)
}

func (s *SM) issueComputeFullScan(cycle int64, memScheduler int) {
	aluLeft := s.cfg.SM.ALUPorts
	sfuLeft := s.cfg.SM.SFUPorts
	lrr := s.cfg.SM.Scheduler == config.LRR
	for si := range s.scheds {
		if si == memScheduler {
			continue
		}
		sc := &s.scheds[si]
		if sc.issuedAt == cycle || len(sc.warps) == 0 {
			continue
		}
		picked := -1
		if !lrr && sc.lastIssued >= 0 {
			w := &s.warps[sc.lastIssued]
			if int(w.SchedID) == si && s.readyForCompute(w, cycle, aluLeft, sfuLeft) {
				picked = sc.lastIssued
			}
		}
		if picked < 0 {
			n := len(sc.warps)
			start := 0
			if lrr {
				start = sc.rrPos % n
			}
			for i := 0; i < n; i++ {
				slotW := sc.warps[(start+i)%n]
				if s.readyForCompute(&s.warps[slotW], cycle, aluLeft, sfuLeft) {
					picked = slotW
					if lrr {
						sc.rrPos = (start + i + 1) % n
					}
					break
				}
			}
		}
		if picked < 0 {
			continue
		}
		s.issueComputeWarp(sc, picked, cycle, &aluLeft, &sfuLeft)
	}
}

// WidestScheduler returns the number of warps on the fullest scheduler,
// for the external differential tests: above 64, the index is working
// in its second mask word.
func (s *SM) WidestScheduler() int {
	n := 0
	for si := range s.scheds {
		n = max(n, len(s.scheds[si].warps))
	}
	return n
}
