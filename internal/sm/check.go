// Invariant checking for the memory-pipeline bookkeeping. The paper's
// mechanisms (BMI quota refresh, MIL caps) and the simulator's own
// accounting (per-kernel in-flight counters, MSHR/miss-queue occupancy)
// are conservation laws: a silent violation — an in-flight counter that
// leaks, a quota that never refreshes — does not crash the run, it
// quietly corrupts every downstream table. The optional watchdog
// (gpu.Watchdog) calls CheckInvariants every cycle and turns the first
// violation into a structured error instead.
package sm

import "fmt"

// coalescerSlack is the legal overshoot past a MIL cap: Allow is
// consulted once per instruction, before its up-to-32 coalesced
// requests enter flight, so the counter may exceed the cap by at most
// one instruction's worth of requests minus the slot Allow granted.
const coalescerSlack = 31

// InvariantError is one detected conservation violation, attributed to
// the cycle, SM and kernel where it was caught. SM or Kernel is -1 when
// the rule is not specific to one (machine-level checks reuse the type).
type InvariantError struct {
	Cycle  int64
	SM     int
	Kernel int
	Rule   string // short rule identifier, e.g. "inflight-negative"
	Detail string
}

func (e *InvariantError) Error() string {
	loc := ""
	if e.SM >= 0 {
		loc = fmt.Sprintf(" sm=%d", e.SM)
	}
	if e.Kernel >= 0 {
		loc += fmt.Sprintf(" kernel=%d", e.Kernel)
	}
	return fmt.Sprintf("invariant %s violated at cycle %d%s: %s", e.Rule, e.Cycle, loc, e.Detail)
}

// limitReporter is implemented by limiters whose per-kernel caps never
// move during a run (SMIL). The cap rule deliberately excludes dynamic
// limiters: a DMIL that lowers its limit legitimately leaves the
// already-admitted in-flight count above the new cap until it drains.
type limitReporter interface{ StaticLimit(k int) int }

// policyChecker is implemented by memory-issue policies with an internal
// conservation rule of their own (QBMI's quota refresh).
type policyChecker interface{ CheckInvariant() error }

// CheckInvariants validates the SM's per-cycle conservation invariants
// and returns a structured *InvariantError for the first violation:
//
//   - per-kernel in-flight access counters never go negative (a negative
//     count means a completion was delivered twice);
//   - with a static limiter attached, in-flight accesses never exceed
//     the MIL cap by more than one instruction's coalesced requests;
//   - L1D MSHR and miss-queue occupancy stay within their configured
//     capacity (an excess means reservation accounting leaked);
//   - the L1D's derived state — tag index, line-to-MSHR map, free list,
//     stall memo — equals a recomputation from its lines and MSHR slab;
//   - the issue index equals a recomputation from warp state (every
//     resident warp's position, kind, kernel and asleep bits, and the
//     wheel holding exactly the sleepers' wakes);
//   - the memory-issue policy's own invariant holds (QBMI quotas refresh
//     exactly when any kernel's quota hits zero).
func (s *SM) CheckInvariants(cycle int64) error {
	lr, hasLimit := s.limiter.(limitReporter)
	for k := range s.descs {
		if s.inflight[k] < 0 {
			return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: k, Rule: "inflight-negative",
				Detail: fmt.Sprintf("in-flight access count is %d", s.inflight[k])}
		}
		if hasLimit {
			if cap := lr.StaticLimit(k); cap > 0 && s.inflight[k] > cap+coalescerSlack {
				return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: k, Rule: "mil-cap",
					Detail: fmt.Sprintf("in-flight accesses %d exceed MIL cap %d (+%d coalescer slack)",
						s.inflight[k], cap, coalescerSlack)}
			}
		}
	}
	if got := s.L1.MSHRInUse(); got < 0 || got > s.cfg.L1D.MSHRs {
		return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: -1, Rule: "mshr-occupancy",
			Detail: fmt.Sprintf("L1D MSHRs in use %d outside [0,%d]", got, s.cfg.L1D.MSHRs)}
	}
	if got := s.L1.MissQueueLen(); got > s.cfg.L1D.MissQueue {
		return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: -1, Rule: "missq-occupancy",
			Detail: fmt.Sprintf("L1D miss queue holds %d entries, capacity %d", got, s.cfg.L1D.MissQueue)}
	}
	if err := s.L1.CheckIndex(); err != nil {
		return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: -1, Rule: "cache-index",
			Detail: "L1D: " + err.Error()}
	}
	if err := s.checkIndex(); err != nil {
		return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: -1, Rule: "ready-index",
			Detail: err.Error()}
	}
	if pc, ok := s.memPolicy.(policyChecker); ok {
		if err := pc.CheckInvariant(); err != nil {
			return &InvariantError{Cycle: cycle, SM: s.ID, Kernel: -1, Rule: "mem-policy",
				Detail: err.Error()}
		}
	}
	return nil
}

// ResidentTBs reports whether any thread block is resident on the SM
// (the forward-progress watchdog only expects issue while work is
// resident).
func (s *SM) ResidentTBs() bool {
	for _, c := range s.tbCount {
		if c > 0 {
			return true
		}
	}
	return false
}
