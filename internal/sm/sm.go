// Package sm models one streaming multiprocessor: thread-block dispatch
// against static resources (registers, shared memory, threads, TB
// slots), four warp schedulers (GTO or LRR), ALU/SFU pipelines with a
// scoreboard, a memory coalescer and an in-order load/store unit in
// front of the L1 D-cache.
//
// The memory pipeline follows the paper's model: the LSU accepts at most
// one warp memory instruction per cycle (expanded into Req/Minst
// coalesced requests), services one request per cycle against the L1D,
// and *stalls* whenever the head request suffers a reservation failure —
// blocking every kernel sharing the SM. Which kernel gets the one memory
// issue slot per cycle is decided by a pluggable MemIssuePolicy; whether
// a kernel may add another in-flight memory instruction is decided by a
// pluggable Limiter. These are the paper's BMI and MIL hook points.
package sm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

const noBarrier = ^uint64(0)

// Warp is one resident warp.
type Warp struct {
	Active      bool
	doneIssuing bool
	Kernel      int8
	SchedID     int8
	TB          int16
	Gen         uint32
	// age is the SM-wide launch sequence number: GTO's "oldest" order.
	age int64

	IssuedInstrs uint64
	NextKind     kern.InstrKind
	pos          int
	ReadyAt      int64
	lastCycle    int64 // last cycle this warp issued (at most 1 instr/cycle)

	outBarriers [8]uint64 // barrier indices of outstanding loads
	outN        int
}

// minBarrier returns the smallest outstanding-load barrier, or noBarrier.
func (w *Warp) minBarrier() uint64 {
	m := uint64(noBarrier)
	for i := 0; i < w.outN; i++ {
		if w.outBarriers[i] < m {
			m = w.outBarriers[i]
		}
	}
	return m
}

func (w *Warp) removeBarrier(b uint64) {
	for i := 0; i < w.outN; i++ {
		if w.outBarriers[i] == b {
			w.outN--
			w.outBarriers[i] = w.outBarriers[w.outN]
			return
		}
	}
}

type tbSlot struct {
	active    bool
	kernel    int8
	warpsLeft int
	warps     []int
}

type scheduler struct {
	warps      []int // assigned warp slots, oldest first
	lastIssued int   // warp slot of the greedy warp, or -1
	rrPos      int
	issuedAt   int64 // cycle of last issue (one instruction per cycle)
}

type compEntry struct {
	token *mem.InstrToken
	at    int64
}

// SM is one streaming multiprocessor instance.
type SM struct {
	ID  int
	cfg *config.Config

	descs []*kern.Desc
	quota []int

	L1    *cache.Cache
	space mem.AddrSpace

	warps []Warp
	// Cold per-warp state lives in parallel arrays indexed by warp slot,
	// keeping Warp small: the schedulers read the Warp of every issue
	// candidate each cycle, while the address-generator state and per-warp
	// RNG are only touched on the one slot that actually issues.
	wAddr []kern.AddrState
	wRNG  []xrand.Source

	freeWarps []int
	tbs       []tbSlot
	scheds    []scheduler

	// The issue index (ready.go), derived from the warp state above:
	// per-scheduler position masks (rows rows of words words each, stored
	// in blocks of 1<<blockShift) by issue kind, for sleeping warps and by
	// kernel; where each warp slot's bit sits in them; and the wake wheel
	// (words words per bucket) with the last cycle whose wakes were
	// applied. maskBuf is the issue stages' scratch mask.
	masks      []uint64
	rows       int
	words      int
	blockShift uint
	wAt        []int32
	wheel      []uint64
	wheelMask  int64
	woken      int64
	maskBuf    []uint64
	index      []uint64 // the allocation masks, maskBuf and wheel are cut from

	tbCount     []int
	tbLaunched  []uint64
	threadsUsed int
	regsUsed    int
	smemUsed    int
	dispatchPtr int
	schedAssign int
	warpAge     int64

	// The LSU pipeline register: one memory instruction dispatches at a
	// time, one coalesced request per cycle. A reservation failure
	// leaves the request in place and stalls the pipeline; a new
	// instruction can only enter once every request of the current one
	// has been dispatched. This is the single shared structure the
	// paper's kernels contend for: a high-Req/Minst instruction holds
	// the LSU for many cycles and absorbs the failure attribution.
	lsuReqs []*mem.Request
	lsuIdx  int

	compQ ring.Ring[compEntry]

	// now is the cycle of the most recent Tick/Deliver, used to stamp
	// trace events emitted from retirement paths that have no cycle
	// argument of their own (TB completion, line fills).
	now int64

	// Pool, when non-nil, supplies this SM's requests and instruction
	// tokens and receives them back at retirement. The owner sets it, on
	// the SM and on its L1: the GPU to its one machine-wide pool.
	Pool *mem.Pool

	// inflight counts in-flight memory *accesses* (coalesced requests)
	// per kernel: a kernel's footprint in the miss-handling resources.
	// The paper's 7-bit MILG counter saturates at 128 — the MSHR count —
	// i.e. it measures concurrent L1D accesses, which is what this
	// tracks (an instruction with Req/Minst requests counts Req/Minst).
	inflight []int

	memPolicy MemIssuePolicy
	limiter   Limiter
	gate      IssueGate
	// oldestFirst: no memory-issue policy is installed, so the globally
	// oldest candidate issues (resolved in SetPolicies).
	oldestFirst bool

	// K counts the instructions each kernel issued, by kind; its L1D
	// accesses and reservation failures are L1.Stats.
	K []stats.KernelCounters

	// warm[k] is kernel k's cursor through its warm region on this SM,
	// which SM ID starts ID/NumSMs of the way in.
	warm []kern.Warm

	// Trace, when non-nil, receives cycle-level events.
	Trace *trace.Buffer

	// Scratch buffers.
	candKernels []int
	candWarps   []int
	candAges    []int64
	lineBuf     [32]uint64

	rng xrand.Source
}

// New builds an SM running the given kernel slots with per-kernel TB
// quotas. Policies may be nil (unmanaged defaults).
func New(id int, cfg *config.Config, descs []*kern.Desc, quota []int,
	memPolicy MemIssuePolicy, limiter Limiter, gate IssueGate, seed uint64) *SM {

	s := new(SM)
	s.Init(id, cfg, descs, quota, memPolicy, limiter, gate, seed)
	return s
}

// Init makes s the SM New returns, in the memory s already holds where
// that is large enough (see gpu.New): the L1, the warp arrays, the TB
// slots' and schedulers' warp lists, the issue index, the LSU register
// and the completion queue. Everything else — Pool and Trace included,
// which the owner attaches afterwards — is zero again.
func (s *SM) Init(id int, cfg *config.Config, descs []*kern.Desc, quota []int,
	memPolicy MemIssuePolicy, limiter Limiter, gate IssueGate, seed uint64) {

	n := len(descs)
	l1 := s.L1
	if l1 == nil {
		l1 = new(cache.Cache)
	}
	l1.Init(cfg.L1D, n)
	s.compQ.Reset()
	*s = SM{
		ID:         id,
		cfg:        cfg,
		descs:      descs,
		quota:      append(ring.Zeroed(s.quota, 0), quota...),
		L1:         l1,
		space:      mem.NewAddrSpace(cfg.L1D.LineBytes),
		warps:      ring.Zeroed(s.warps, cfg.SM.MaxWarps),
		wAddr:      ring.Zeroed(s.wAddr, cfg.SM.MaxWarps),
		wRNG:       ring.Zeroed(s.wRNG, cfg.SM.MaxWarps),
		freeWarps:  ring.Zeroed(s.freeWarps, 0),
		tbs:        ring.Kept(s.tbs, cfg.SM.MaxTBs),
		scheds:     ring.Kept(s.scheds, cfg.SM.Schedulers),
		index:      s.index,
		wAt:        ring.Zeroed(s.wAt, cfg.SM.MaxWarps),
		tbCount:    ring.Zeroed(s.tbCount, n),
		tbLaunched: ring.Zeroed(s.tbLaunched, n),
		lsuReqs:    ring.Zeroed(s.lsuReqs, 0),
		compQ:      s.compQ,
		inflight:   ring.Zeroed(s.inflight, n),
		K:          ring.Zeroed(s.K, n),
		warm:       ring.Zeroed(s.warm, n),
		// One memory-issue candidate per kernel at most.
		candKernels: ring.Zeroed(s.candKernels, n)[:0],
		candWarps:   ring.Zeroed(s.candWarps, n),
		candAges:    ring.Zeroed(s.candAges, n),
	}
	s.rng.Seed(seed ^ (uint64(id)+1)*0xA24BAED4963EE407)
	s.SetPolicies(memPolicy, limiter, gate)
	s.newIndex()
	for i := range s.tbs {
		s.tbs[i] = tbSlot{warps: s.tbs[i].warps[:0]}
	}
	for i := range s.scheds {
		s.scheds[i] = scheduler{warps: s.scheds[i].warps[:0], lastIssued: -1, issuedAt: -1}
	}
	for i := len(s.warps) - 1; i >= 0; i-- {
		s.warps[i].Gen = 1
		s.freeWarps = append(s.freeWarps, i)
	}
	for k, d := range descs {
		w := d.EffectiveWarmLines(cfg.L2.SizeBytes / cfg.L2.LineBytes * cfg.NumMemParts)
		s.warm[k] = kern.Warm{Lines: w, Pos: uint64(id) * w / uint64(cfg.NumSMs)}
	}
}

// SetQuota replaces the per-kernel TB quota; resident TBs drain
// naturally (no preemption), matching the paper's baselines.
func (s *SM) SetQuota(quota []int) {
	copy(s.quota, quota)
}

// Drain force-retires every resident warp: each stops issuing
// immediately and finalizes once its outstanding loads return (their
// completions are generation-guarded, so recycling the slots is safe).
// Dynamic Warped-Slicer uses this between profiling rounds; without it
// a thread block lingers for its full lifetime and pollutes the next
// round's measurement.
func (s *SM) Drain() {
	for i := range s.warps {
		w := &s.warps[i]
		if w.Active && !w.doneIssuing {
			w.doneIssuing = true
			if w.outN == 0 {
				s.finalizeWarp(i)
			} else {
				s.reclass(i)
			}
		}
	}
}

// Quota returns the active per-kernel TB quota.
func (s *SM) Quota() []int { return s.quota }

// TBCount returns the resident TB count of kernel k.
func (s *SM) TBCount(k int) int { return s.tbCount[k] }

// Inflight returns kernel k's in-flight memory access count.
func (s *SM) Inflight(k int) int { return s.inflight[k] }

// Tick advances the SM one cycle. Memory responses must have been
// delivered (Deliver) before the owner calls Tick for the cycle. Cycles
// normally arrive consecutively; they may skip ahead (every wake that
// fell due in the gap is applied) but must not go back.
func (s *SM) Tick(cycle int64) {
	s.now = cycle
	s.gate.Tick(cycle)
	s.limiter.Tick(cycle)
	s.wake(cycle)
	s.drainCompletions(cycle)
	s.dispatch(cycle)
	// The LSU dispatches before issue so that the pipeline register can
	// accept a new memory instruction in the cycle its last request
	// leaves.
	s.lsuTick(cycle)
	memScheduler := s.issueMem(cycle)
	s.issueCompute(cycle, memScheduler)
}

// drainCompletions finishes L1-hit loads whose latency elapsed.
func (s *SM) drainCompletions(cycle int64) {
	for !s.compQ.Empty() && s.compQ.Peek().at <= cycle {
		s.onReqDone(s.compQ.Pop().token)
	}
}

// onReqDone retires one completed request of a memory instruction; when
// it is the instruction's last, the owning warp's load barrier clears.
func (s *SM) onReqDone(t *mem.InstrToken) {
	t.Done++
	s.inflight[t.Kernel]--
	s.limiter.NoteInflight(t.Kernel, s.inflight[t.Kernel])
	if t.Completed() {
		s.onTokenDone(t)
		// Every request of the instruction has retired, so nothing live
		// references the token anymore (retiring paths sever or release
		// their Instr pointers).
		s.Pool.ReleaseToken(t)
	}
}

// onTokenDone retires one completed memory instruction.
func (s *SM) onTokenDone(t *mem.InstrToken) {
	if t.Kind != mem.Load {
		return
	}
	w := &s.warps[t.Warp]
	if w.Gen != t.WarpGen {
		return
	}
	w.removeBarrier(t.BarrierIdx)
	if w.doneIssuing && w.outN == 0 {
		s.finalizeWarp(t.Warp)
	} else {
		s.reclass(t.Warp)
	}
}

// dispatch launches at most one thread block per cycle, round-robin
// across kernels under quota.
func (s *SM) dispatch(cycle int64) {
	n := len(s.descs)
	for i := 0; i < n; i++ {
		k := (s.dispatchPtr + i) % n
		if s.tbCount[k] >= s.quota[k] {
			continue
		}
		d := s.descs[k]
		wpt := d.WarpsPerTB(s.cfg.WarpSize)
		if len(s.freeWarps) < wpt ||
			s.threadsUsed+d.ThreadsPerTB > s.cfg.SM.MaxThreads ||
			s.regsUsed+d.ThreadsPerTB*d.RegsPerThread > s.cfg.SM.Registers ||
			s.smemUsed+d.SmemPerTB > s.cfg.SM.SmemBytes {
			continue
		}
		slot := -1
		for t := range s.tbs {
			if !s.tbs[t].active {
				slot = t
				break
			}
		}
		if slot < 0 {
			continue
		}
		s.launchTB(k, slot, wpt, cycle)
		s.dispatchPtr = (k + 1) % n
		return
	}
}

func (s *SM) launchTB(k, slot, wpt int, cycle int64) {
	d := s.descs[k]
	tb := &s.tbs[slot]
	tb.active = true
	tb.kernel = int8(k)
	tb.warpsLeft = wpt
	tb.warps = tb.warps[:0]
	tbSeq := s.tbLaunched[k]*uint64(s.cfg.NumSMs) + uint64(s.ID)
	s.tbLaunched[k]++
	for wi := 0; wi < wpt; wi++ {
		slotW := s.freeWarps[len(s.freeWarps)-1]
		s.freeWarps = s.freeWarps[:len(s.freeWarps)-1]
		w := &s.warps[slotW]
		gen := w.Gen
		s.warpAge++
		*w = Warp{Active: true, Kernel: int8(k), TB: int16(slot), Gen: gen, age: s.warpAge}
		seq := tbSeq*uint64(wpt) + uint64(wi)
		s.wRNG[slotW].Seed(uint64(s.ID)<<32 ^ seq*0x9E3779B97F4A7C15 ^ uint64(k)<<56 ^ s.cfg.Seed)
		s.wAddr[slotW] = kern.AddrState{}
		d.InitAddrState(&s.wAddr[slotW], seq, s.warm[k].Lines)
		w.NextKind, w.pos = d.NextKind(0, &s.wRNG[slotW])
		w.ReadyAt = cycle
		w.lastCycle = -1
		sched := s.schedAssign % len(s.scheds)
		s.schedAssign++
		w.SchedID = int8(sched)
		s.scheds[sched].warps = append(s.scheds[sched].warps, slotW)
		s.enter(slotW, sched, len(s.scheds[sched].warps)-1)
		tb.warps = append(tb.warps, slotW)
	}
	s.threadsUsed += d.ThreadsPerTB
	s.regsUsed += d.ThreadsPerTB * d.RegsPerThread
	s.smemUsed += d.SmemPerTB
	s.tbCount[k]++
	if s.Trace != nil {
		s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.TBLaunch, SM: int8(s.ID), Kernel: int8(k), Arg: uint64(slot)})
	}
}

func (s *SM) finalizeWarp(slotW int) {
	w := &s.warps[slotW]
	w.Active = false
	w.Gen++
	if w.ReadyAt > s.woken {
		// Retiring asleep: the wake is withdrawn.
		at, bit := s.wakeBit(slotW, w.ReadyAt)
		s.wheel[at] &^= bit
	}
	// Every later warp of the scheduler moves up one position.
	si := int(w.SchedID)
	sched := &s.scheds[si]
	pos := s.posOf(slotW, si)
	sched.warps = append(sched.warps[:pos], sched.warps[pos+1:]...)
	s.rebuildSched(si)
	if sched.lastIssued == slotW {
		sched.lastIssued = -1
	}
	s.freeWarps = append(s.freeWarps, slotW)
	tb := &s.tbs[w.TB]
	tb.warpsLeft--
	if tb.warpsLeft == 0 {
		k := int(tb.kernel)
		d := s.descs[k]
		s.threadsUsed -= d.ThreadsPerTB
		s.regsUsed -= d.ThreadsPerTB * d.RegsPerThread
		s.smemUsed -= d.SmemPerTB
		s.tbCount[k]--
		tb.active = false
		s.K[k].TBsDone++
		if s.Trace != nil {
			s.Trace.Add(trace.Event{Cycle: s.now, Kind: trace.TBDone, SM: int8(s.ID), Kernel: tb.kernel, Arg: uint64(w.TB)})
		}
	}
}

// lsuFree reports whether the LSU pipeline register can accept a new
// memory instruction.
func (s *SM) lsuFree() bool { return s.lsuIdx >= len(s.lsuReqs) }

// issueMem performs the memory-issue stage: at most one warp memory
// instruction enters the LSU per cycle. It returns the scheduler that
// issued, or -1.
//
// Candidates are collected per kernel: the oldest ready memory warp of
// each kernel across all schedulers. The unmanaged default then picks
// the globally oldest one — greedy-then-oldest semantics, under which a
// memory-intensive kernel (whose warps are almost always memory-ready)
// naturally monopolizes the LSU, the starvation the paper's Section 3.2
// targets. BMI policies override the choice among kernels.
func (s *SM) issueMem(cycle int64) int {
	if !s.lsuFree() {
		return -1
	}
	s.candKernels = s.candKernels[:0]
	// Whether a kernel may issue memory instructions this cycle is asked
	// at most once, the first time one of its warps comes up.
	var asked, open uint64
	for si := range s.scheds {
		sc := &s.scheds[si]
		m := s.maskBuf[:(len(sc.warps)+63)>>6]
		for i := range m {
			blk := s.block(si, i)
			m[i] = blk[kindMem] &^ blk[rowAsleep]
		}
		// Peel the scheduler's oldest ready memory warp of each kernel,
		// in position order.
		for pos := firstSet(m, 0); pos >= 0; pos = firstSet(m, pos+1) {
			slotW := sc.warps[pos]
			w := &s.warps[slotW]
			k := int(w.Kernel)
			if asked&(1<<uint(k)) == 0 {
				asked |= 1 << uint(k)
				if s.limiter.Allow(k, s.inflight[k]) && s.gate.CanIssue(k) {
					open |= 1 << uint(k)
				}
			}
			if open&(1<<uint(k)) != 0 {
				s.addMemCandidate(k, slotW, w.age)
			}
			for i := range m {
				m[i] &^= s.block(si, i)[rowKernel+k]
			}
		}
	}
	return s.issueMemCandidate(cycle)
}

// addMemCandidate records the ready memory warp in slotW as kernel k's
// candidate of this cycle unless an older one is already recorded.
// Truncating candKernels starts a cycle's collection.
func (s *SM) addMemCandidate(k, slotW int, age int64) {
	for i, ck := range s.candKernels {
		if ck == k {
			if age < s.candAges[i] {
				s.candWarps[i] = slotW
				s.candAges[i] = age
			}
			return
		}
	}
	s.candWarps[len(s.candKernels)] = slotW
	s.candAges[len(s.candKernels)] = age
	s.candKernels = append(s.candKernels, k)
}

// issueMemCandidate lets the memory-issue policy choose among the
// collected per-kernel candidates and issues the winner's instruction
// into the LSU. It returns the scheduler that issued, or -1.
func (s *SM) issueMemCandidate(cycle int64) int {
	if len(s.candKernels) == 0 {
		return -1
	}
	pick := 0
	if len(s.candKernels) > 1 {
		if s.oldestFirst {
			for i := 1; i < len(s.candKernels); i++ {
				if s.candAges[i] < s.candAges[pick] {
					pick = i
				}
			}
		} else {
			pick = s.memPolicy.Pick(s.candKernels)
			if pick < 0 || pick >= len(s.candKernels) {
				pick = 0
			}
		}
	}
	slotW := s.candWarps[pick]
	w := &s.warps[slotW]
	k := int(w.Kernel)
	d := s.descs[k]
	kind := mem.Load
	if w.NextKind == kern.MemStore {
		kind = mem.Store
	}
	nreq := d.GenLines(&s.wAddr[slotW], &s.wRNG[slotW], s.lineBuf[:], kind == mem.Store, &s.warm[k])
	barrier := uint64(noBarrier)
	if kind == mem.Load {
		barrier = w.IssuedInstrs + uint64(d.DepDist)
	}
	token := s.Pool.Token()
	token.Kernel, token.SM, token.Warp, token.Kind = k, s.ID, slotW, kind
	token.Total, token.BarrierIdx, token.WarpGen = nreq, barrier, w.Gen
	s.lsuReqs = s.lsuReqs[:0]
	s.lsuIdx = 0
	for i := 0; i < nreq; i++ {
		r := s.Pool.Request()
		r.LineAddr = s.space.LineOf(k, s.lineBuf[i])
		r.Kind = kind
		r.Kernel = k
		r.SM = s.ID
		r.Warp = slotW
		r.Instr = token
		r.IssueCycle = cycle
		s.lsuReqs = append(s.lsuReqs, r)
	}
	if kind == mem.Load {
		w.outBarriers[w.outN] = barrier
		w.outN++
	}
	s.inflight[k] += nreq
	s.limiter.NoteInflight(k, s.inflight[k])
	s.memPolicy.OnIssue(k, nreq)
	s.gate.OnIssue(k)
	if s.Trace != nil {
		s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.IssueMem, SM: int8(s.ID), Kernel: int8(k), Warp: int16(slotW), Arg: uint64(nreq)})
	}
	s.K[k].MemInstrs++
	sched := int(w.SchedID)
	s.scheds[sched].issuedAt = cycle
	s.scheds[sched].lastIssued = slotW
	// advanceWarp may finalize the warp (store as last instruction), in
	// which case it also clears the scheduler's greedy pointer.
	s.advanceWarp(slotW, cycle)
	return sched
}

// advanceWarp moves the warp in slot past the instruction it just issued.
func (s *SM) advanceWarp(slot int, cycle int64) {
	w := &s.warps[slot]
	w.lastCycle = cycle
	w.IssuedInstrs++
	d := s.descs[w.Kernel]
	if w.IssuedInstrs >= d.InstrsPerWarp {
		w.doneIssuing = true
		if w.outN == 0 {
			s.finalizeWarp(slot)
		} else {
			s.reclass(slot)
		}
		return
	}
	w.NextKind, w.pos = d.NextKind(w.pos, &s.wRNG[slot])
	s.reclass(slot)
}

// issueCompute runs each scheduler's compute-issue slot: the greedy warp
// if it is ready (GTO), else the first ready warp in age order (GTO) or
// rotation order (LRR), where ready is a bit in the masks of the kinds
// whose port is still free, outside the asleep mask, of a kernel whose
// gate is open.
func (s *SM) issueCompute(cycle int64, memScheduler int) {
	aluLeft := s.cfg.SM.ALUPorts
	sfuLeft := s.cfg.SM.SFUPorts
	lrr := s.cfg.SM.Scheduler == config.LRR
	for si := range s.scheds {
		if si == memScheduler {
			continue
		}
		sc := &s.scheds[si]
		m := s.maskBuf[:(len(sc.warps)+63)>>6]
		var some uint64
		for i := range m {
			blk := s.block(si, i)
			var ready uint64
			if aluLeft > 0 {
				ready = blk[kindALU]
			}
			if sfuLeft > 0 {
				ready |= blk[kindSFU]
			}
			m[i] = ready &^ blk[rowAsleep]
			some |= m[i]
		}
		if some == 0 {
			continue
		}
		// GTO offers the greedy warp first; otherwise the search runs from
		// the oldest position (GTO) or the rotation pointer (LRR), wrapping.
		start, pos := 0, -1
		if lrr {
			start = sc.rrPos % max(len(sc.warps), 1)
		} else if sc.lastIssued >= 0 {
			pos = s.posOf(sc.lastIssued, si)
			if m[pos>>6]&(1<<(pos&63)) == 0 {
				pos = -1
			}
		}
		for {
			if pos < 0 {
				if pos = firstSet(m, start); pos < 0 && start > 0 {
					pos = firstSet(m, 0)
				}
				if pos < 0 {
					break
				}
			}
			k := int(s.warps[sc.warps[pos]].Kernel)
			if s.gate.CanIssue(k) {
				break
			}
			// The gate's answer is per kernel: none of its warps issue.
			for i := range m {
				m[i] &^= s.block(si, i)[rowKernel+k]
			}
			pos = -1
		}
		if pos < 0 {
			continue
		}
		if lrr {
			sc.rrPos = (pos + 1) % len(sc.warps)
		}
		s.issueComputeWarp(sc, sc.warps[pos], cycle, &aluLeft, &sfuLeft)
	}
}

// issueComputeWarp issues the ALU or SFU instruction of the
// warp scheduler sc picked, charging the port it occupies.
func (s *SM) issueComputeWarp(sc *scheduler, picked int, cycle int64, aluLeft, sfuLeft *int) {
	w := &s.warps[picked]
	k := int(w.Kernel)
	switch w.NextKind {
	case kern.ALU:
		*aluLeft--
		s.K[k].ALUInstrs++
		w.ReadyAt = cycle + int64(s.cfg.SM.ALULat)
	case kern.SFU:
		*sfuLeft--
		s.K[k].SFUInstrs++
		w.ReadyAt = cycle + int64(s.cfg.SM.SFULat)
	}
	if w.ReadyAt > cycle {
		s.sleep(picked)
	}
	s.gate.OnIssue(k)
	if s.Trace != nil {
		s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.IssueCompute, SM: int8(s.ID), Kernel: int8(k), Warp: int16(picked)})
	}
	sc.issuedAt = cycle
	sc.lastIssued = picked
	s.advanceWarp(picked, cycle)
}

// lsuTick services one coalesced request against the L1D.
func (s *SM) lsuTick(cycle int64) {
	if s.lsuIdx >= len(s.lsuReqs) {
		return
	}
	req := s.lsuReqs[s.lsuIdx]
	res := s.L1.Access(req)
	if res.Failed() {
		k := req.Kernel
		s.limiter.OnRsFail(k)
		if s.Trace != nil {
			s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.RsFail, SM: int8(s.ID), Kernel: int8(k), Warp: int16(req.Warp), Arg: uint64(res)})
		}
		return
	}
	s.lsuIdx++
	k := req.Kernel
	s.limiter.OnRequest(k)
	if s.Trace != nil {
		var arg uint64
		switch res {
		case cache.Miss:
			arg = 1
		case cache.HitPending:
			arg = 2
		case cache.Forwarded:
			arg = 3
		case cache.Bypassed:
			arg = 4
		}
		s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.L1Access, SM: int8(s.ID), Kernel: int8(k), Warp: int16(req.Warp), Arg: arg})
	}
	switch res {
	case cache.Hit:
		// The cache kept nothing: the request retires here.
		if req.Kind == mem.Load {
			s.compQ.Push(compEntry{token: req.Instr, at: cycle + int64(s.cfg.L1D.HitLatency)})
		} else {
			s.onReqDone(req.Instr)
		}
		s.Pool.Release(req)
	case cache.Forwarded:
		// Stores complete at forward; the write travels below on its
		// own. Sever the token link first — the token may be recycled
		// while the store is still in flight, and stores never come
		// back up to dereference it.
		token := req.Instr
		req.Instr = nil
		s.onReqDone(token)
	case cache.Miss, cache.HitPending, cache.Bypassed:
		// Completion arrives with the fill (or, for a bypassed load,
		// with the response addressed straight to this instruction).
	}
}

// Deliver accepts one memory response (a filled line) from the
// interconnect and completes the merged loads. cycle is the cycle the
// response is delivered in (the SM may not have Ticked yet this cycle).
func (s *SM) Deliver(resp *mem.Request, cycle int64) {
	s.now = cycle
	if resp.Instr != nil {
		// A bypassed load: the response answers the original request
		// directly, with no line to fill; the request retires here.
		s.onReqDone(resp.Instr)
		s.Pool.Release(resp)
		return
	}
	if s.Trace != nil {
		s.Trace.Add(trace.Event{Cycle: cycle, Kind: trace.Fill, SM: int8(s.ID), Kernel: int8(resp.Kernel), Arg: resp.LineAddr})
	}
	targets := s.L1.Fill(resp.LineAddr)
	for _, t := range targets {
		if t.Instr != nil {
			s.onReqDone(t.Instr)
		}
		s.Pool.Release(t)
	}
	s.Pool.Release(resp)
}

// PeekOutbound returns the next request destined for the memory
// partitions without consuming it.
func (s *SM) PeekOutbound() *mem.Request { return s.L1.PeekMiss() }

// PopOutbound consumes the next outbound request.
func (s *SM) PopOutbound() *mem.Request { return s.L1.PopMiss() }

// Validate checks the workload against the configuration.
func Validate(cfg *config.Config, descs []*kern.Desc) error {
	for _, d := range descs {
		if err := d.Validate(cfg); err != nil {
			return err
		}
		if d.ReqPerMinst > 32 {
			return fmt.Errorf("sm: kernel %s ReqPerMinst (%d) exceeds the coalescer buffer (32)",
				d.Name, d.ReqPerMinst)
		}
	}
	return nil
}
