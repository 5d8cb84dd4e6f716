package sm

import "repro/internal/config"

// The reference issue stage: the full scans the SM ran before the
// readiness index existed, kept in test code only. They ask
// readyForMem/readyForCompute about every resident warp of every
// scheduler and never read the index, so a warp or scheduler the index
// hides by mistake shows up as a diverging trace in the differential
// tests (differential_test.go). Everything after the scan — the policy
// pick, the issue itself — is the production code.

// TickReference is Tick with the reference issue stage. It keeps the
// index maintained (the shared issue code updates it) but ignores it.
func (s *SM) TickReference(cycle int64) {
	s.now = cycle
	s.gate.Tick(cycle)
	s.limiter.Tick(cycle)
	s.drainCompletions(cycle)
	s.dispatch(cycle)
	s.lsuTick(cycle)
	memScheduler := s.issueMemFullScan(cycle)
	s.issueComputeFullScan(cycle, memScheduler)
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
