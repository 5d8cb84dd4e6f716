// Package gpu assembles the full simulated GPU: SMs, the request and
// response crossbars, the L2 partitions and the DRAM channels, and runs
// the deterministic cycle loop.
//
// Tick order within a cycle is fixed: SM issue/LSU -> request network ->
// L2/DRAM -> response network -> (next cycle) SM fill delivery (see
// Step). Runs are independent of one another, so the parallelism that
// pays first is one whole simulation per core, which is internal/runner's
// business. A machine stepping alone in its process with at least
// splitMinSMs SMs, a write-back L2, a crossbar latency of at least one
// cycle, no policy instance shared across SMs and GOMAXPROCS of 2 or
// more also splits its cycle (split.go): a helper goroutine ticks the
// upper two thirds of the SMs of cycle c while RunCycles' caller runs
// the memory side of cycle c-1 and then ticks the lower third, and the
// two meet once per cycle at a join where the caller commits the
// crossbar and drains the SMs. On a 2-core host that runs lone 16-SM
// jobs on C+M and M+M pairs 1.18x faster than the SM phase split alone
// in halves, which ran 1.03-1.21x the one-goroutine loop
// (results/engine-split.md). The bytes
// do not depend on it: an SM's tick touches nothing another SM's does,
// nor anything the previous cycle's memory side does before the join
// commits it.
//
// Every layer above is a stream of short simulations, so a machine's
// memory outlives it: built (New) -> run (RunCycles) -> retired (Close)
// -> parked in the process-wide pool `retired` -> re-initialised by the
// next New, whatever its shape. There is one construction path: New runs
// init on a zero GPU or on a parked one, init assigns the whole struct
// and every component's Init does the same one level down (cache, sm,
// icnt, dram, mem.Pool, Ring.Reset), taking each slice through
// ring.Zeroed or ring.Kept. What survives a retirement is capacity —
// arrays, ring buffers, MSHR target storage, warp lists, and the pool's
// requests and tokens, in flight or not — never state: a differently
// shaped successor costs an allocation, not a wrong answer. Results and
// snapshots own their memory and are unaffected; policies, traces and
// descriptors belong to the caller and are never reused.
package gpu

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/icnt"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PolicyFactory builds the per-SM policy objects. Local mechanisms (the
// paper's per-SM MILGs and QBMI counters) get one instance per SM; a
// factory may also return a shared instance to model global variants.
type PolicyFactory struct {
	MemPolicy func(smID, numKernels int) sm.MemIssuePolicy
	Limiter   func(smID, numKernels int) sm.Limiter
	Gate      func(smID, numKernels int) sm.IssueGate
}

// Options configures one simulation run.
type Options struct {
	Cycles int64
	// Quota[smID][kernel] is the per-SM TB partition. Intra-SM sharing
	// schemes use the same row for every SM; spatial multitasking uses
	// disjoint rows.
	Quota    [][]int
	Policies PolicyFactory
	// UCP attaches a utility monitor to every L1D; a Repartition
	// observer partitions the ways from them.
	UCP bool
	// BypassL1[k]: kernel k's load misses bypass the L1 (Section 4.5).
	BypassL1 []bool
	// Trace, when non-nil, receives cycle-level events from every SM.
	Trace *trace.Buffer
	// Series samples each kernel's issued instructions and successful
	// L1D accesses, summed over SMs, at every multiple of
	// stats.SeriesInterval into the Cycles/SeriesInterval+1 buckets of
	// its result's Series (see sampler).
	Series bool
	// Observers run between cycles, in this order when several are due
	// at once (see Observer).
	Observers []Observer
	// Deprecated: Workers is never read. The intra-cycle fan-out it
	// selected is gone; the field survives because bench/engine.go:256
	// assigns it.
	Workers int
	// Deprecated: PartWorkers is never read; see Workers
	// (bench/engine.go:256).
	PartWorkers int
	// PhaseTime enables per-phase wall-time accounting (sm/drain/
	// reqnet/partition/respnet); read it back with the package-wide
	// PhaseTotals. Off by default: it costs two clock
	// reads per phase per cycle.
	PhaseTime bool
}

type l2Response struct {
	req     *mem.Request
	readyAt int64
}

// partition is one L2 slice plus its DRAM channel.
type partition struct {
	l2   *cache.Cache
	ch   *dram.Channel
	inQ  ring.Ring[*mem.Request]
	resp ring.Ring[l2Response]
}

// GPU is a fully assembled simulator instance.
type GPU struct {
	cfg   config.Config
	descs []*kern.Desc

	SMs     []*sm.SM
	reqNet  *icnt.Network
	respNet *icnt.Network
	parts   []*partition

	ctrlFlits int
	dataFlits int

	cycle int64

	// pool recycles the requests and instruction tokens of the whole
	// machine: every SM, cache and DRAM channel points here, except the
	// SMs the helper of a machine that may split ticks (twoPools) and
	// their L1s, which draw from hpool: a Pool is not safe for concurrent
	// use. Each side's requests return to its pool (poolOf), so neither
	// allocates once the machine has settled. hpool sits on cache lines
	// of its own, or the two sides would trade one at every draw and
	// release.
	pool  mem.Pool
	_     [64]byte
	hpool mem.Pool
	_     [64]byte
	// stores holds the hpool stores retired on the memory side since the
	// last commit (retire).
	stores ring.Ring[*mem.Request]

	// pending: the memory side of cycle cycle-1 has not run yet (step).
	pending bool

	// Per-phase wall-time accounting (Options.PhaseTime).
	phaseTime bool
	phase     PhaseStats

	// series is Options.Series' sampler, nil when it is off.
	series *sampler

	// policies holds the per-SM policy instances currently installed,
	// kept for the snapshot layer's stateful-policy guard and the
	// checkpoint's policy blobs (see snapshot.go). sharedPolicy: one
	// stateful instance is installed in two SMs, so the SM phase must not
	// split.
	policies     [][3]any
	sharedPolicy bool

	// failed: a run on this machine returned an error. Close discards
	// such a machine instead of parking it.
	failed bool
}

// retired parks the machines Close has retired until New builds the
// next one in their memory. It is not keyed by shape: init reuses what
// is large enough and allocates the rest. The GC empties it under
// pressure, so parked machines cost nothing a collection cannot take
// back.
var retired sync.Pool

// New builds a GPU running the given kernels under opts, in the memory
// of a retired machine when one is parked.
func New(cfg config.Config, descs []*kern.Desc, opts *Options) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sm.Validate(&cfg, descs); err != nil {
		return nil, err
	}
	if len(opts.Quota) != cfg.NumSMs {
		return nil, fmt.Errorf("gpu: Quota has %d rows, want %d (one per SM)", len(opts.Quota), cfg.NumSMs)
	}
	for i, row := range opts.Quota {
		if len(row) != len(descs) {
			return nil, fmt.Errorf("gpu: Quota row %d has %d entries, want %d", i, len(row), len(descs))
		}
	}
	g, _ := retired.Get().(*GPU)
	if g == nil {
		g = new(GPU)
	}
	g.init(cfg, descs, opts)
	return g, nil
}

// init makes g the machine New returns: the one construction path, run
// on a zero GPU and on a retired one alike. The whole struct is
// assigned, so a field without a line here is zero; what survives from
// the previous machine is capacity only — the component objects, whose
// own Init does the same one level down, and the pool's free lists.
func (g *GPU) init(cfg config.Config, descs []*kern.Desc, opts *Options) {
	reqNet, respNet := g.reqNet, g.respNet
	if reqNet == nil {
		reqNet, respNet = new(icnt.Network), new(icnt.Network)
	}
	reqNet.Init(cfg.Icnt, cfg.NumSMs, cfg.NumMemParts)
	respNet.Init(cfg.Icnt, cfg.NumMemParts, cfg.NumSMs)
	g.pool.Init()
	g.hpool.Init()
	g.stores.Reset()
	*g = GPU{
		cfg:       cfg,
		descs:     descs,
		SMs:       ring.Kept(g.SMs, cfg.NumSMs),
		reqNet:    reqNet,
		respNet:   respNet,
		parts:     ring.Kept(g.parts, cfg.NumMemParts),
		ctrlFlits: icnt.CtrlFlits(cfg.Icnt),
		dataFlits: icnt.DataFlits(cfg.Icnt, cfg.L1D.LineBytes),
		pool:      g.pool,
		hpool:     g.hpool,
		stores:    g.stores,
		phaseTime: opts.PhaseTime,
		series:    newSampler(opts, len(descs)),
	}
	if opts.Trace != nil {
		opts.Trace.EnsureShards(cfg.NumSMs)
	}
	for i := range g.SMs {
		s := g.SMs[i]
		if s == nil {
			s = new(sm.SM)
			g.SMs[i] = s
		}
		s.Init(i, &g.cfg, descs, opts.Quota[i], nil, nil, nil, cfg.Seed)
		s.Trace = opts.Trace
		p := g.poolOf(i)
		s.Pool, s.L1.Pool = p, p
	}
	for p := range g.parts {
		part := g.parts[p]
		if part == nil {
			part = &partition{l2: new(cache.Cache), ch: new(dram.Channel)}
			g.parts[p] = part
		}
		part.l2.Init(cfg.L2, len(descs))
		part.ch.Init(cfg.DRAM, cfg.L2.LineBytes)
		part.inQ.Reset()
		part.resp.Reset()
		*part = partition{l2: part.l2, ch: part.ch, inQ: part.inQ, resp: part.resp}
		part.l2.Pool, part.ch.Pool = &g.pool, &g.pool
	}
	g.InstallPolicies(opts)
}

// Close retires the machine: its memory is parked for the next New, and
// g itself becomes the zero GPU, so a second Close does nothing and any
// other use of a closed machine fails at once instead of disturbing the
// machine that now runs in that memory. Take Result and snapshots
// first; they own their memory and outlive the machine. A machine whose
// run returned an error (an interrupt, a watchdog violation) is left as
// it is and not parked.
func (g *GPU) Close() {
	if g.failed || g.SMs == nil {
		return
	}
	parked := new(GPU)
	*parked, *g = *g, GPU{}
	retired.Put(parked)
}

// Cycle returns the current simulation cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// Config returns the GPU's configuration.
func (g *GPU) Config() *config.Config { return &g.cfg }

// Kernels returns the kernel descriptors of the workload.
func (g *GPU) Kernels() []*kern.Desc { return g.descs }

// Run executes the simulation for opts.Cycles cycles and returns the
// aggregated result.
func Run(cfg config.Config, descs []*kern.Desc, opts *Options) (*stats.RunResult, error) {
	g, err := New(cfg, descs, opts)
	if err != nil {
		return nil, err
	}
	if err := g.RunCycles(opts); err != nil {
		return nil, err
	}
	r := g.Result()
	g.Close()
	return r, nil
}

// RunCycles advances the machine by opts.Cycles cycles, running
// opts.Observers between them. It returns nil on completion or the first
// error an observer returns: ErrInterrupted (wrapped with the cycle
// reached) from Interrupt, a *sm.InvariantError from Watchdog. opts is
// only read.
func (g *GPU) RunCycles(opts *Options) error {
	err := g.runCycles(opts)
	g.failed = g.failed || err != nil
	return err
}

func (g *GPU) runCycles(opts *Options) error {
	stepping.Add(1)
	defer stepping.Add(-1)
	sp := g.splitter()
	defer sp.stop()
	if g.phaseTime {
		start := g.phase
		defer func() { addPhaseTotals(g.phase.sub(start)) }()
	}
	const never = int64(^uint64(0) >> 1)
	obs := opts.Observers
	next := make([]int64, len(obs))
	for i := range obs {
		next[i] = max(obs[i].At, g.cycle)
	}
	// due is the least of next: the loop's one compare per cycle.
	end, due := g.cycle+opts.Cycles, g.cycle
	for {
		if g.cycle == due {
			g.flush()
			due = never
			for i := range obs {
				if next[i] == g.cycle {
					if err := obs[i].Fn(g); err != nil {
						return err
					}
					next[i] = never
					if obs[i].Every > 0 {
						next[i] = g.cycle + obs[i].Every
					}
				}
				due = min(due, next[i])
			}
		}
		if g.cycle >= end {
			g.flush()
			return nil
		}
		g.step(sp.helper())
	}
}

// lap adds the time since *t0 to *acc and restarts the clock.
func lap(acc *int64, t0 *time.Time) {
	t1 := time.Now()
	*acc += t1.Sub(*t0).Nanoseconds()
	*t0 = t1
}

// Step advances the machine by one cycle: the five phases in tick
// order, on the calling goroutine. (RunCycles may run the SM phase
// split, and the memory side under the next cycle's SM phase; see
// split.go.)
//
// The order fixes what each phase sees of the crossbars, through their
// commits (see icnt.Network). A packet granted by Tick(c) carries
// readyAt >= c+1, so no Pop of cycle c can take it: the partitions pop
// the request network after its tick and the SMs pop the response
// network before its tick, and both see exactly the deliveries of
// cycles before c. The pops of a phase are committed before the next
// tick of their network: the response tick of cycle c counts this
// cycle's SM pops, the request tick of cycle c+1 this cycle's partition
// pops.
func (g *GPU) Step() {
	g.step(nil)
	g.flush()
}

// step is Step with the SM phase split with h, or serial when h is nil,
// and with the memory side of the cycle left pending.
//
// With h, the pending memory side of the previous cycle runs on the
// caller while the helper ticks its SMs of this one, and is committed
// only at the join, once both sides' SMs are done. That moves no byte
// while Icnt.Latency >= 1, a condition of any split (twoPools): a grant
// of respNet.Tick(c-1) carries readyAt >= c+Latency, out of reach of
// the SMs' pops of cycle c; those pops count only from their
// CommitPops at the join, so Tick(c-1) sees exactly the pops of cycles
// up to c-1; and drain(c) runs at the join, after reqNet.Tick(c-1) and
// before reqNet.Tick(c), as in the serial order.
func (g *GPU) step(h *helper) {
	c := g.cycle
	if sp := g.series; sp != nil && c%stats.SeriesInterval == 0 && c > sp.at {
		// No SM is ticking: the helper waits for the publication below.
		sp.sample(g)
	}
	pt := g.phaseTime
	var t0 time.Time
	if h == nil {
		g.flush()
		if pt {
			t0 = time.Now()
		}
		g.tickSMs(0, len(g.SMs), c)
	} else {
		if pt {
			t0 = time.Now()
		}
		h.publish(c)
		if g.pending {
			g.pending = false
			g.memSide(c-1, &t0)
		}
		h.tick(c)
	}
	if pt {
		lap(&g.phase.SMNs, &t0)
	}

	g.respNet.CommitPops()
	if h != nil {
		// What the memory side granted and retired beside the SMs; a
		// serial cycle's flush committed it before its SMs.
		g.respNet.CommitDeliveries()
		g.returnStores()
	}
	g.drain()
	g.pending = true
	if pt {
		lap(&g.phase.DrainNs, &t0)
		g.phase.Cycles++
	}
	g.cycle++
}

// memSide runs the memory side of cycle c — request-network tick, the
// partitions, response-network tick — leaving the response network's
// grants and the helper's SMs' retired stores to the caller's next
// commit. t0 is the phase clock when PhaseTime is on.
func (g *GPU) memSide(c int64, t0 *time.Time) {
	pt := g.phaseTime
	g.reqNet.Tick(c)
	g.reqNet.CommitDeliveries()
	if pt {
		lap(&g.phase.ReqNetNs, t0)
	}

	for p, part := range g.parts {
		g.tickPartition(p, part, c)
	}
	g.reqNet.CommitPops()
	if pt {
		lap(&g.phase.PartNs, t0)
	}

	g.respNet.Tick(c)
	if pt {
		lap(&g.phase.RespNetNs, t0)
	}
}

// flush completes the cycle whose memory side is pending, if any: runs
// it and commits what it granted and retired, so the machine is where
// the serial loop leaves it after Step. RunCycles flushes before every
// observer, before each serial cycle (the helper released) and before
// it returns; a machine outside RunCycles has nothing pending.
func (g *GPU) flush() {
	if !g.pending {
		return
	}
	g.pending = false
	var t0 time.Time
	if g.phaseTime {
		t0 = time.Now()
	}
	g.memSide(g.cycle-1, &t0)
	g.respNet.CommitDeliveries()
	g.returnStores()
	if g.phaseTime {
		lap(&g.phase.RespNetNs, &t0)
	}
}

// retire returns a store that retired at an L2 to the pool of the SM
// that allocated it: at once when that is the memory side's own pool,
// at the next commit when it is hpool, which the helper's SMs may be
// drawing from while the memory side runs.
func (g *GPU) retire(r *mem.Request) {
	if p := g.poolOf(r.SM); p == &g.pool {
		p.Release(r)
	} else {
		g.stores.Push(r)
	}
}

// returnStores releases the stores retire held back into hpool.
func (g *GPU) returnStores() {
	for !g.stores.Empty() {
		g.hpool.Release(g.stores.Pop())
	}
}

// poolOf returns the pool that SM smID and its L1 draw from, and that
// the requests they allocated return to. The memory side releases into
// it only the stores that retire at an L2 (retire); every other object
// the memory side releases, its own pool allocated.
func (g *GPU) poolOf(smID int) *mem.Pool {
	if g.twoPools() && smID >= splitAt(len(g.SMs)) {
		return &g.hpool
	}
	return &g.pool
}

// tickSMs runs the SM phase of cycle c for SMs [lo, hi): deliver the
// responses that have arrived, then tick.
func (g *GPU) tickSMs(lo, hi int, c int64) {
	for i := lo; i < hi; i++ {
		s := g.SMs[i]
		for resp := g.respNet.Pop(i, c); resp != nil; resp = g.respNet.Pop(i, c) {
			s.Deliver(resp, c)
		}
		s.Tick(c)
	}
}

// drain moves each SM's L1 miss queue head into the request network, in
// SM-index order.
func (g *GPU) drain() {
	for i, s := range g.SMs {
		if r := s.PeekOutbound(); r != nil && g.reqNet.CanPush(i) {
			flits := g.ctrlFlits
			if r.Kind == mem.Store {
				flits = g.dataFlits
			}
			dst := mem.PartitionOf(r.LineAddr, g.cfg.NumMemParts)
			g.reqNet.Push(i, icnt.Packet{Req: r, Dst: dst, Flits: flits})
			s.PopOutbound()
		}
	}
}

func (g *GPU) tickPartition(p int, part *partition, c int64) {
	// Drain the network into the partition's input buffer (the network
	// ejection port is wide; the L2 service rate below is what bounds
	// throughput).
	for part.inQ.Len() < g.cfg.Icnt.QueueDepth*2 {
		r := g.reqNet.Pop(p, c)
		if r == nil {
			break
		}
		part.inQ.Push(r)
	}

	// Service the L2: two accesses per cycle (partitions are internally
	// banked); a reservation failure stalls the in-order stream.
	for served := 0; served < 2 && !part.inQ.Empty(); served++ {
		req := part.inQ.Peek()
		res := part.l2.Access(req)
		if res.Failed() {
			break
		}
		part.inQ.Pop()
		switch res {
		case cache.Hit:
			if req.Kind == mem.Load {
				part.resp.Push(l2Response{
					req:     req,
					readyAt: c + int64(g.cfg.L2.HitLatency+g.cfg.L2ExtraLat),
				})
			} else {
				// A store absorbed by the write-back L2 retires here:
				// no response travels up.
				g.retire(req)
			}
		case cache.Forwarded:
			// Write-through path is unused for the write-back L2;
			// forwarded results occur only for write-no-allocate
			// configurations.
			part.ch.Push(req, c)
		}
	}

	// Drain the L2 miss queue into the DRAM channel.
	if part.ch.CanPush() {
		if r := part.l2.PeekMiss(); r != nil {
			part.l2.PopMiss()
			part.ch.Push(r, c)
		}
	}
	// Dirty evictions also go to DRAM (writes, fire and forget).
	if part.ch.CanPush() {
		if wb := part.l2.PopWriteback(); wb != nil {
			part.ch.Push(wb, c)
		}
	}

	part.ch.Tick(c)

	// DRAM fills complete L2 misses; merged loads produce responses.
	// The fill request itself (the fetch the L2 sent down) and any
	// merged store targets retire here.
	if fill := part.ch.PopResponse(c); fill != nil {
		targets := part.l2.Fill(fill.LineAddr)
		for _, t := range targets {
			if t.Kind == mem.Load {
				part.resp.Push(l2Response{req: t, readyAt: c})
			} else {
				g.retire(t)
			}
		}
		g.pool.Release(fill)
	}

	// Inject up to two responses per cycle into the response network.
	for inj := 0; inj < 2 && !part.resp.Empty() && part.resp.Peek().readyAt <= c; inj++ {
		if !g.respNet.CanPush(p) {
			break
		}
		r := part.resp.Pop().req
		g.respNet.Push(p, icnt.Packet{Req: r, Dst: r.SM, Flits: g.dataFlits})
	}
}

// Result aggregates statistics across SMs.
func (g *GPU) Result() *stats.RunResult {
	g.flush()
	r := &stats.RunResult{
		Cycles:  g.cycle,
		NumSMs:  len(g.SMs),
		Kernels: make([]stats.KernelResult, len(g.descs)),
	}
	for _, s := range g.SMs {
		r.SMCycles += uint64(g.cycle)
		r.ALUPortCycles += uint64(g.cycle) * uint64(g.cfg.SM.ALUPorts)
		r.SFUPortCycles += uint64(g.cycle) * uint64(g.cfg.SM.SFUPorts)
		for k := range g.descs {
			kr := &r.Kernels[k]
			kc := &s.K[k]
			kr.Instrs += kc.Instrs()
			kr.MemInstrs += kc.MemInstrs
			kr.TBsDone += kc.TBsDone
			kr.L1D.Add(&s.L1.Stats[k])
			r.ALUIssued += kc.ALUInstrs
			r.SFUIssued += kc.SFUInstrs
		}
	}
	// The bucket the run ends in holds what its copy of the sampler
	// counts since the last sample.
	sp := g.series.clone()
	if sp != nil && g.cycle > sp.at {
		sp.sample(g)
	}
	for k := range r.Kernels {
		kr := &r.Kernels[k]
		kr.Name = g.descs[k].Name
		kr.Requests = kr.L1D.Accesses
		r.LSUStallCycles += kr.L1D.RsFail
		r.LSUBusyCycles += kr.L1D.Accesses
		if g.cycle > 0 {
			kr.IPC = float64(kr.Instrs) / float64(g.cycle)
		}
		if sp != nil {
			kr.Series = &sp.kernels[k]
		}
	}
	for _, part := range g.parts {
		for _, st := range part.l2.Stats {
			r.Mem.L2Accesses += st.Accesses
		}
		r.Mem.DRAMAccesses += part.ch.Served
	}
	r.Mem.Flits = g.reqNet.TransferredFlits + g.respNet.TransferredFlits
	return r
}

// sampler is Options.Series. At each multiple of stats.SeriesInterval,
// before any SM ticks, it files how far each kernel's issued
// instructions and successful L1D accesses, summed over SMs, have grown
// since its last sample into the bucket that sample opened.
type sampler struct {
	kernels []stats.Series // Issued and L1Acc, Cycles/SeriesInterval+1 buckets fixed at New
	at      int64          // the cycle of the last sample
	// issued and accesses are each kernel's counts at cycle at.
	issued, accesses []uint64
}

// newSampler returns the sampler of a machine built with opts, or nil
// when opts.Series is off.
func newSampler(opts *Options, kernels int) *sampler {
	if !opts.Series {
		return nil
	}
	n := opts.Cycles/stats.SeriesInterval + 1
	sp := &sampler{issued: make([]uint64, kernels), accesses: make([]uint64, kernels)}
	for range kernels {
		sp.kernels = append(sp.kernels, stats.Series{Issued: make([]uint32, n), L1Acc: make([]uint32, n)})
	}
	return sp
}

// sample files every kernel's growth since the last sample and makes
// the current cycle the last sample.
func (sp *sampler) sample(g *GPU) {
	b := sp.at / stats.SeriesInterval
	for k := range sp.kernels {
		var issued, accesses uint64
		for _, s := range g.SMs {
			issued += s.K[k].Instrs()
			accesses += s.L1.Stats[k].Accesses
		}
		sp.kernels[k].Issued[b] = uint32(issued - sp.issued[k])
		sp.kernels[k].L1Acc[b] = uint32(accesses - sp.accesses[k])
		sp.issued[k], sp.accesses[k] = issued, accesses
	}
	sp.at = g.cycle
}

// clone returns a deep copy of sp (nil for nil).
func (sp *sampler) clone() *sampler {
	if sp == nil {
		return nil
	}
	c := &sampler{at: sp.at, issued: slices.Clone(sp.issued), accesses: slices.Clone(sp.accesses)}
	for _, ser := range sp.kernels {
		c.kernels = append(c.kernels, stats.Series{Issued: slices.Clone(ser.Issued), L1Acc: slices.Clone(ser.L1Acc)})
	}
	return c
}

// UniformQuota builds a Quota matrix giving every SM the same per-kernel
// TB partition.
func UniformQuota(numSMs int, perSM []int) [][]int {
	q := make([][]int, numSMs)
	for i := range q {
		q[i] = append([]int(nil), perSM...)
	}
	return q
}

// L2KernelStats aggregates kernel k's L2 statistics across partitions
// (used by L2-congestion-driven controllers).
func (g *GPU) L2KernelStats(k int) cache.KernelStats {
	var out cache.KernelStats
	for _, part := range g.parts {
		if k >= len(part.l2.Stats) {
			continue
		}
		out.Add(&part.l2.Stats[k])
	}
	return out
}

// DRAMQueueLen returns the summed DRAM channel queue occupancy (a
// congestion signal for L2-side throttling).
func (g *GPU) DRAMQueueLen() int {
	total := 0
	for _, part := range g.parts {
		total += part.ch.QueueLen()
	}
	return total
}
