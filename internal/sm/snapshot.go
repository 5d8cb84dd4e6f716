// Snapshot/restore for one SM: warps, TB slots, schedulers, occupancy
// accounting, the warm cursors, the LSU pipeline register, the
// completion queue and statistics — plus the embedded L1 —
// deep-copied through the machine-wide mem.Cloner. Requests and tokens
// are cloned (never pool-drawn), so releasing/poisoning the originals
// after a snapshot cannot corrupt it.
//
// Deliberately NOT captured: the Pool (the machine's; a restore leaves
// its free lists as they are), the Trace buffer (an external observer,
// not engine state), the issue index with its wake wheel (derived;
// Restore rebuilds both from the warps' ReadyAt) and the scratch
// buffers (transient), and the issue policies — policy objects may hold
// cross-SM shared state the cloner cannot see, so the GPU layer refuses
// to snapshot while stateful policies are installed and reinstalls them
// after restore (see gpu.InstallPolicies).

package sm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Snapshot is the captured state of one SM. Immutable once taken;
// Restore deep-copies out of it, so one snapshot can seed many SMs.
type Snapshot struct {
	warps     []Warp
	wAddr     []kern.AddrState
	wRNG      []xrand.Source
	freeWarps []int
	tbs       []tbSlot
	scheds    []scheduler

	tbCount     []int
	tbLaunched  []uint64
	threadsUsed int
	regsUsed    int
	smemUsed    int
	dispatchPtr int
	schedAssign int
	warpAge     int64
	warm        []kern.Warm

	// Only the undispatched suffix of the LSU pipeline register is
	// captured (requests at indices < lsuIdx have already left; the live
	// SM only ever reads lsuReqs[lsuIdx:]), so the restored SM starts
	// with lsuIdx = 0.
	lsuReqs []*mem.Request

	compQ []compEntry
	now   int64

	inflight []int

	counters []stats.KernelCounters

	rng xrand.Source

	l1 *cache.Snapshot
}

// Snapshot captures the SM's full state (including its L1) through cl,
// the snapshot operation's machine-wide cloner.
func (s *SM) Snapshot(cl *mem.Cloner) *Snapshot {
	sn := &Snapshot{
		warps:       append([]Warp(nil), s.warps...),
		wAddr:       append([]kern.AddrState(nil), s.wAddr...),
		wRNG:        append([]xrand.Source(nil), s.wRNG...),
		freeWarps:   append([]int(nil), s.freeWarps...),
		tbCount:     append([]int(nil), s.tbCount...),
		tbLaunched:  append([]uint64(nil), s.tbLaunched...),
		threadsUsed: s.threadsUsed,
		regsUsed:    s.regsUsed,
		smemUsed:    s.smemUsed,
		dispatchPtr: s.dispatchPtr,
		schedAssign: s.schedAssign,
		warpAge:     s.warpAge,
		warm:        append([]kern.Warm(nil), s.warm...),
		now:         s.now,
		inflight:    append([]int(nil), s.inflight...),
		counters:    append([]stats.KernelCounters(nil), s.K...),
		rng:         s.rng,
		l1:          s.L1.Snapshot(cl),
	}
	for i := range s.tbs {
		tb := s.tbs[i]
		tb.warps = append([]int(nil), s.tbs[i].warps...)
		sn.tbs = append(sn.tbs, tb)
	}
	for i := range s.scheds {
		sc := s.scheds[i]
		sc.warps = append([]int(nil), s.scheds[i].warps...)
		sn.scheds = append(sn.scheds, sc)
	}
	for _, r := range s.lsuReqs[s.lsuIdx:] {
		sn.lsuReqs = append(sn.lsuReqs, cl.Request(r))
	}
	sn.compQ = s.compQ.Snapshot(func(e compEntry) compEntry {
		return compEntry{token: cl.Token(e.token), at: e.at}
	})
	return sn
}

// Restore overwrites the SM's state from sn, deep-copying through cl
// (the restore operation's machine-wide cloner). The SM must have the
// geometry the snapshot was taken from; its policies are untouched (the
// GPU layer reinstalls them).
func (s *SM) Restore(sn *Snapshot, cl *mem.Cloner) error {
	if len(sn.warps) != len(s.warps) || len(sn.tbs) != len(s.tbs) ||
		len(sn.scheds) != len(s.scheds) || len(sn.inflight) != len(s.inflight) {
		return fmt.Errorf("sm %d: restore: geometry mismatch (warps %d/%d, tbs %d/%d, scheds %d/%d, kernels %d/%d)",
			s.ID, len(sn.warps), len(s.warps), len(sn.tbs), len(s.tbs),
			len(sn.scheds), len(s.scheds), len(sn.inflight), len(s.inflight))
	}
	if err := s.L1.Restore(sn.l1, cl); err != nil {
		return fmt.Errorf("sm %d: %w", s.ID, err)
	}
	copy(s.warps, sn.warps)
	copy(s.wAddr, sn.wAddr)
	copy(s.wRNG, sn.wRNG)
	s.freeWarps = append(s.freeWarps[:0], sn.freeWarps...)
	for i := range s.tbs {
		w := append(s.tbs[i].warps[:0], sn.tbs[i].warps...)
		s.tbs[i] = sn.tbs[i]
		s.tbs[i].warps = w
	}
	for i := range s.scheds {
		w := append(s.scheds[i].warps[:0], sn.scheds[i].warps...)
		s.scheds[i] = sn.scheds[i]
		s.scheds[i].warps = w
	}
	copy(s.tbCount, sn.tbCount)
	copy(s.tbLaunched, sn.tbLaunched)
	s.threadsUsed = sn.threadsUsed
	s.regsUsed = sn.regsUsed
	s.smemUsed = sn.smemUsed
	s.dispatchPtr = sn.dispatchPtr
	s.schedAssign = sn.schedAssign
	s.warpAge = sn.warpAge
	copy(s.warm, sn.warm)
	s.lsuReqs = s.lsuReqs[:0]
	for _, r := range sn.lsuReqs {
		s.lsuReqs = append(s.lsuReqs, cl.Request(r))
	}
	s.lsuIdx = 0
	s.compQ.Restore(sn.compQ, func(e compEntry) compEntry {
		return compEntry{token: cl.Token(e.token), at: e.at}
	})
	s.now = sn.now
	copy(s.inflight, sn.inflight)
	copy(s.K, sn.counters)
	s.rng = sn.rng
	s.rebuildIndex()
	return nil
}

// SetPolicies replaces the SM's issue policies; nil arguments fall back
// to the unmanaged defaults (New goes through here too). The GPU layer
// uses this to install the managed policies on a freshly restored (or
// warmed-up) machine.
func (s *SM) SetPolicies(memPolicy MemIssuePolicy, limiter Limiter, gate IssueGate) {
	s.memPolicy = memPolicy
	s.limiter = limiter
	s.gate = gate
	if s.memPolicy == nil {
		s.memPolicy = NopMemPolicy{}
	}
	if s.limiter == nil {
		s.limiter = NopLimiter{}
	}
	if s.gate == nil {
		s.gate = NopGate{}
	}
	_, s.oldestFirst = s.memPolicy.(NopMemPolicy)
}

// PendingRequests returns how many requests/tokens the SM currently
// holds in its LSU, completion queue and L1 (snapshot-footprint
// accounting).
func (s *SM) PendingRequests() int {
	return len(s.lsuReqs[s.lsuIdx:]) + s.compQ.Len() + s.L1.PendingRequests()
}
