// Memory Instruction Limiting (MIL), Section 3.3 of the paper.
//
// Limits are expressed in in-flight memory *accesses* (coalesced
// requests): the paper's 7-bit in-flight counter saturates at 128 — the
// MSHR count, i.e. the number of accesses that can be outstanding at the
// L1D — so accesses are the unit that makes limits comparable across
// kernels with different coalescing degrees (a limit of 17 lets ks issue
// one 17-request instruction but bp eight 2-request ones).
//
// SMIL applies static per-kernel caps (the paper sweeps these in
// Figure 9). DMIL adapts the caps at runtime: each kernel on each SM
// owns a MILG — a memory instruction limiting number generator built
// from the paper's Figure 10 counters (7-bit peak in-flight, 12-bit
// saturating reservation-failure, 10-bit request).
//
// The paper's published update rule is
//
//	L_i = max(peak_inflight − (rsfail >> 10), 1)
//
// recomputed every 1024 requests, targeting "at most one reservation
// failure per memory request — a fully utilized/near stall-free memory
// pipeline". Applied verbatim in this simulator that rule cannot work,
// for reasons DESIGN.md §6.4 documents: in access units the subtraction
// is negligible against a peak of ~128, a stalled kernel reaches its
// 1024-request boundary only after millions of cycles, and per-request
// failure normalization cannot tell the aggressor from its victims
// (both see similar per-request failure rates while the aggressor's
// requests camp in the MSHRs for DRAM-scale latencies). The MILGs here
// therefore keep the paper's counters, floor-of-1 rule, and per-kernel
// per-SM structure, but decide once per fixed 4096-cycle interval with
// cross-kernel comparison inside each SM's DMIL unit:
//
//   - The pipeline is "unhealthy" when its kernels' reservation-failure
//     (stall) cycles, summed, reach a quarter of the interval.
//   - When unhealthy, the kernels holding miss resources the longest
//     per request (time-integrated in-flight occupancy over completions
//     — residency, by Little's law) AND above an absolute floor that
//     only DRAM-bound traffic reaches are cut to half their observed
//     peak.
//   - Every kernel not cut, healthy interval or not, reopens its window
//     past its observed peak with exponentially growing steps
//     (phase-change recovery, which the paper's monotone formula lacks).

package core

import "repro/internal/sm"

// Unlimited is the SMIL cap meaning "no limit" (the paper's Inf point).
const Unlimited = 0

// SMIL statically caps in-flight memory instructions per kernel.
type SMIL struct {
	limits []int
}

// NewSMIL builds a static limiter; limits[k] == Unlimited disables the
// cap for kernel k.
func NewSMIL(limits []int) *SMIL {
	return &SMIL{limits: append([]int(nil), limits...)}
}

// Allow implements sm.Limiter.
func (s *SMIL) Allow(kernel, inflight int) bool {
	if kernel >= len(s.limits) || s.limits[kernel] == Unlimited {
		return true
	}
	return inflight < s.limits[kernel]
}

func (s *SMIL) OnRequest(kernel int)              {}
func (s *SMIL) OnRsFail(kernel int)               {}
func (s *SMIL) NoteInflight(kernel, inflight int) {}
func (s *SMIL) Tick(cycle int64)                  {}

// StaticLimit exposes kernel k's static cap (Unlimited = none). Only
// SMIL implements it: the invariant watchdog's cap rule applies to caps
// that never move during a run, while dynamic limiters (DMIL) may
// legitimately lower their limit below the current in-flight count.
func (s *SMIL) StaticLimit(k int) int {
	if k >= len(s.limits) {
		return Unlimited
	}
	return s.limits[k]
}

var _ sm.Limiter = (*SMIL)(nil)

// MILG hardware parameters (Section 4.4): counter widths bound the
// hardware cost to a few tens of bits per kernel per SM.
const (
	milgPeakBits   = 7  // up to 128 in-flight memory instructions
	milgRsfailBits = 12 // saturating failure counter
	milgReqBits    = 10 // sampling interval of 1024 requests
	milgShift      = 10 // rsfail >> 10 == failures per request

	milgPeakMax   = 1<<milgPeakBits - 1
	milgRsfailMax = 1<<milgRsfailBits - 1
	milgReqPeriod = 1 << milgReqBits
)

// milgMinCutResidency is the absolute residency (average in-flight
// cycles per request) below which a kernel is never throttled: an
// L2-resident kernel turns its miss entries over in well under this,
// so only kernels camping on miss resources for DRAM-scale latencies
// qualify as aggressors. This keeps C+C pairs (both fast-turnover)
// untouched, matching the paper's "no need to limit compute-intensive
// co-runners".
const milgMinCutResidency = 250

// milgInterval is the recompute period in cycles. The paper recomputes
// every 1024 requests; a stalled kernel issues requests slowly precisely
// because the pipeline is failing, so a fixed time window makes the
// generator converge within short experiments (the paper's runs are 2M
// cycles) and lets the failure counter be read as *stall cycles*: every
// failed attempt blocks the LSU head for exactly one cycle.
const milgInterval = 4096

// MILG is one memory instruction limiting number generator.
//
// It deviates from the paper's formula in one documented way: failures
// are normalized per interval cycle rather than per own request. When an
// SM's kernels together block the LSU head for a quarter of the interval
// or more, the aggressor among them is throttled multiplicatively (cut);
// every other generator's limit recovers with exponential steps
// (reopen). Per-request normalization (the
// paper's rsfail >> 10) hides the asymmetry between an aggressor that
// monopolizes the memory pipeline with long-running bursts and its
// victims, because both see similar per-request failure rates while the
// aggressor absorbs nearly all failed cycles.
type MILG struct {
	Limit     int
	peak      int
	rsfail    uint32
	reqCount  uint32
	inflight  int
	integral  int64  // sum of inflight over the interval's cycles
	completed uint32 // requests completed in the interval
	lastComp  int64  // cycle of the last recompute
	recover   int    // recovery step, doubles per clean interval
}

// NewMILG returns a generator with the limit fully open.
func NewMILG() *MILG { return &MILG{Limit: milgPeakMax + 1, recover: 1} }

// cut halves the window (multiplicative decrease).
func (m *MILG) cut() {
	m.Limit = m.peak >> 1
	if m.Limit < 1 {
		m.Limit = 1
	}
	m.recover = 1
}

// reopen raises the window past the observed peak, doubling the step per
// consecutive clean interval so an over-throttled kernel recovers
// quickly after a phase change.
func (m *MILG) reopen() {
	if m.recover < 1 {
		m.recover = 1
	}
	m.Limit = m.peak + m.recover
	if m.Limit > milgPeakMax+1 {
		m.Limit = milgPeakMax + 1
	}
	if m.recover < 4 {
		m.recover *= 2
	}
}

// endInterval resets the interval counters.
func (m *MILG) endInterval(cycle int64) {
	m.reqCount = 0
	m.rsfail = 0
	m.peak = m.inflight
	m.integral = 0
	m.completed = 0
	m.lastComp = cycle
}

// OnRequest counts one issued memory request (10-bit saturating).
func (m *MILG) OnRequest() {
	if m.reqCount < milgReqPeriod-1 {
		m.reqCount++
	}
}

// OnRsFail counts one reservation failure (12-bit saturating).
func (m *MILG) OnRsFail() {
	if m.rsfail < milgRsfailMax {
		m.rsfail++
	}
}

// NoteInflight tracks the peak in-flight count of the interval and
// counts completions (an issue raises the count by the instruction's
// request count; a completion lowers it by exactly one).
func (m *MILG) NoteInflight(inflight int) {
	if inflight == m.inflight-1 {
		m.completed++
	}
	m.inflight = inflight
	if inflight > m.peak {
		m.peak = inflight
		if m.peak > milgPeakMax {
			m.peak = milgPeakMax
		}
	}
}

// residency is the interval's average cycles a request stayed in flight
// (time-integrated occupancy over completions, by Little's law).
func (m *MILG) residency() int64 {
	c := int64(m.completed)
	if c == 0 {
		c = 1
	}
	return m.integral / c
}

// DMIL is the dynamic limiter: one MILG per kernel (per SM — construct
// one DMIL per SM for the paper's "local DMIL").
type DMIL struct {
	gens     []*MILG
	cycle    int64
	lastComp int64
}

// NewDMIL builds a dynamic limiter for n kernel slots.
func NewDMIL(n int) *DMIL {
	d := &DMIL{gens: make([]*MILG, n)}
	for i := range d.gens {
		d.gens[i] = NewMILG()
	}
	return d
}

// Allow implements sm.Limiter.
func (d *DMIL) Allow(kernel, inflight int) bool {
	return inflight < d.gens[kernel].Limit
}

// OnRequest implements sm.Limiter.
func (d *DMIL) OnRequest(kernel int) { d.gens[kernel].OnRequest() }

// OnRsFail implements sm.Limiter.
func (d *DMIL) OnRsFail(kernel int) { d.gens[kernel].OnRsFail() }

// NoteInflight implements sm.Limiter.
func (d *DMIL) NoteInflight(kernel, inflight int) {
	d.gens[kernel].NoteInflight(inflight)
}

// Tick implements sm.Limiter. Every cycle it integrates each kernel's
// in-flight access count; every milgInterval cycles the generators
// decide: when the kernels' summed stall cycles reach a quarter of the
// interval, each kernel whose residency is at least the SM's average and
// at least milgMinCutResidency is cut in half (residency — a DRAM-bound
// kernel's requests linger in MSHRs several times longer than an
// L2-resident kernel's, and neither failure counts nor raw occupancy
// separate aggressor from victim); every other kernel's window reopens,
// and so does every window after a healthy interval.
func (d *DMIL) Tick(cycle int64) {
	d.cycle = cycle
	for _, g := range d.gens {
		g.integral += int64(g.inflight)
	}
	if cycle-d.lastComp < milgInterval {
		return
	}
	elapsed := cycle - d.lastComp
	if elapsed <= 0 {
		elapsed = 1
	}
	var totalStall, totalRes int64
	for _, g := range d.gens {
		totalStall += int64(g.rsfail)
		totalRes += g.residency()
	}
	unhealthy := totalStall*4 >= elapsed
	n := int64(len(d.gens))
	for _, g := range d.gens {
		if unhealthy && g.residency()*n >= totalRes && g.residency() >= milgMinCutResidency {
			g.cut()
		} else {
			// Victims reopen even while the pipeline is unhealthy: only
			// the aggressor should shrink.
			g.reopen()
		}
		g.endInterval(cycle)
	}
	d.lastComp = cycle
}

// Limit exposes kernel k's current limiting number.
func (d *DMIL) Limit(k int) int { return d.gens[k].Limit }

var _ sm.Limiter = (*DMIL)(nil)

// GlobalDMIL shares one set of MILGs across SMs (the paper's global
// variant, which requires every SM to run the same kernel mix; kept for
// the ablation study).
type GlobalDMIL struct {
	*DMIL
}

// NewGlobalDMIL builds the shared limiter; pass the same instance to
// every SM's factory slot.
func NewGlobalDMIL(n int) *GlobalDMIL { return &GlobalDMIL{DMIL: NewDMIL(n)} }
