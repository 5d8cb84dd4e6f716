// Package gpu assembles the full simulated GPU: SMs, the request and
// response crossbars, the L2 partitions and the DRAM channels, and runs
// the deterministic cycle loop.
//
// Tick order within a cycle is fixed: SM issue/LSU -> request network ->
// L2/DRAM -> response network -> (next cycle) SM fill delivery. One
// goroutine executes it (see Step); runs are independent of one another,
// so the parallelism that pays is one whole simulation per core, which
// is internal/runner's business, not the engine's.
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
	Trace  *trace.Buffer
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
	// machine: every SM, cache and DRAM channel points here.
	pool mem.Pool

	// Per-phase wall-time accounting (Options.PhaseTime).
	phaseTime bool
	phase     PhaseStats

	// policies holds the per-SM policy instances currently installed,
	// kept for the snapshot layer's stateful-policy guard and the
	// checkpoint's policy blobs (see snapshot.go).
	policies [][3]any

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
		phaseTime: opts.PhaseTime,
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
		if opts.Series {
			s.EnableSeries(opts.Cycles)
		}
		s.Trace = opts.Trace
		s.Pool, s.L1.Pool = &g.pool, &g.pool
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
			return nil
		}
		g.Step()
	}
}

// lap adds the time since *t0 to *acc and restarts the clock.
func lap(acc *int64, t0 *time.Time) {
	t1 := time.Now()
	*acc += t1.Sub(*t0).Nanoseconds()
	*t0 = t1
}

// Step advances the machine by one cycle: the five phases in tick
// order, on the calling goroutine.
//
// The order fixes what each phase sees of the crossbars. A packet
// granted by Tick(c) carries readyAt >= c+1, so no Pop of cycle c can
// take it, whichever side of the Tick the Pop runs on: the partitions
// pop the request network after its tick and the SMs pop the response
// network before its tick, and both see exactly the deliveries of
// cycles before c. A Pop frees its ejection slot at once: the response
// tick of cycle c counts this cycle's SM pops, the request tick of
// cycle c+1 this cycle's partition pops.
func (g *GPU) Step() {
	c := g.cycle
	pt := g.phaseTime
	var t0 time.Time
	if pt {
		t0 = time.Now()
	}

	// SM phase: deliver the responses that have arrived, then tick.
	for i, s := range g.SMs {
		for resp := g.respNet.Pop(i, c); resp != nil; resp = g.respNet.Pop(i, c) {
			s.Deliver(resp, c)
		}
		s.Tick(c)
	}
	if pt {
		lap(&g.phase.SMNs, &t0)
	}

	g.drain()
	if pt {
		lap(&g.phase.DrainNs, &t0)
	}

	g.reqNet.Tick(c)
	if pt {
		lap(&g.phase.ReqNetNs, &t0)
	}

	for p, part := range g.parts {
		g.tickPartition(p, part, c)
	}
	if pt {
		lap(&g.phase.PartNs, &t0)
	}

	g.respNet.Tick(c)
	if pt {
		lap(&g.phase.RespNetNs, &t0)
		g.phase.Cycles++
	}
	g.cycle++
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
				g.pool.Release(req)
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
				g.pool.Release(t)
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
	r := &stats.RunResult{
		Cycles:  g.cycle,
		NumSMs:  len(g.SMs),
		Kernels: make([]stats.KernelResult, len(g.descs)),
	}
	for k, d := range g.descs {
		kr := &r.Kernels[k]
		kr.Name = d.Name
	}
	for _, s := range g.SMs {
		r.LSUStallCycles += s.LSUStall
		r.LSUBusyCycles += s.LSUBusy
		r.ALUIssued += s.ALUIssued
		r.SFUIssued += s.SFUIssued
		r.SMCycles += uint64(g.cycle)
		r.ALUPortCycles += uint64(g.cycle) * uint64(g.cfg.SM.ALUPorts)
		r.SFUPortCycles += uint64(g.cycle) * uint64(g.cfg.SM.SFUPorts)
		for k := range g.descs {
			kr := &r.Kernels[k]
			kc := s.K[k]
			kr.Instrs += kc.Instrs
			kr.SmemInstrs += kc.SmemInstrs
			kr.MemInstrs += kc.MemInstrs
			kr.Requests += kc.Requests
			kr.TBsDone += kc.TBsDone
			cs := s.L1.Stats[k]
			kr.L1D.Accesses += cs.Accesses
			kr.L1D.Hits += cs.Hits
			kr.L1D.Misses += cs.Misses
			kr.L1D.Merged += cs.Merged
			kr.L1D.Bypassed += cs.Bypassed
			kr.L1D.RsFail += cs.RsFail
			kr.L1D.RsFailMSHR += cs.RsFailMSHR
			kr.L1D.RsFailMQ += cs.RsFailMQ
			kr.L1D.RsFailLine += cs.RsFailLine
			if iss, acc := s.Series(k); iss != nil {
				if kr.Series == nil {
					kr.Series = &stats.Series{
						Issued: make([]uint32, len(iss)),
						L1Acc:  make([]uint32, len(acc)),
					}
				}
				for i := range iss {
					kr.Series.Issued[i] += iss[i]
				}
				for i := range acc {
					kr.Series.L1Acc[i] += acc[i]
				}
			}
		}
	}
	for _, part := range g.parts {
		for _, st := range part.l2.Stats {
			r.Mem.L2Accesses += st.Accesses
		}
		r.Mem.DRAMAccesses += part.ch.Served
	}
	r.Mem.Flits = g.reqNet.TransferredFlits + g.respNet.TransferredFlits
	if g.cycle > 0 {
		for k := range r.Kernels {
			r.Kernels[k].IPC = float64(r.Kernels[k].Instrs) / float64(g.cycle)
		}
	}
	return r
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
		st := part.l2.Stats[k]
		out.Accesses += st.Accesses
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Merged += st.Merged
		out.RsFail += st.RsFail
		out.RsFailMSHR += st.RsFailMSHR
		out.RsFailMQ += st.RsFailMQ
		out.RsFailLine += st.RsFailLine
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
