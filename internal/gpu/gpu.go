// Package gpu assembles the full simulated GPU: SMs, the request and
// response crossbars, the L2 partitions and the DRAM channels, and runs
// the deterministic cycle loop.
//
// Tick order within a cycle is fixed: SM issue/LSU -> request network ->
// L2/DRAM -> response network -> (next cycle) SM fill delivery. The
// engine may execute that order on several goroutines — the SM phase
// fans out across SMs, the partition phase across memory partitions,
// and the whole memory side of cycle N overlaps the SM phase of cycle
// N+1 (see Step and stepPipelined) — but every schedule is byte-
// identical to the serial one; DESIGN.md §16 carries the argument.
package gpu

import (
	"fmt"
	"reflect"
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

// UCPConfig enables utility-based L1D way partitioning.
type UCPConfig struct {
	Enabled  bool
	Interval int64 // repartition period in cycles
	MinWays  int
}

// Options configures one simulation run.
type Options struct {
	Cycles int64
	// Quota[smID][kernel] is the per-SM TB partition. Intra-SM sharing
	// schemes use the same row for every SM; spatial multitasking uses
	// disjoint rows.
	Quota    [][]int
	Policies PolicyFactory
	UCP      UCPConfig
	// BypassL1[k]: kernel k's load misses bypass the L1 (Section 4.5).
	BypassL1 []bool
	// Trace, when non-nil, receives cycle-level events from every SM.
	Trace  *trace.Buffer
	Series bool
	// Hook, if non-nil, runs every HookInterval cycles (dynamic
	// profiling schemes re-partition through it).
	Hook         func(g *GPU, cycle int64)
	HookInterval int64
	// Interrupt, if non-nil, is polled every 1024 cycles; when it
	// reports true, RunCycles stops early and returns ErrInterrupted
	// (cancellation and per-job timeouts thread through here).
	Interrupt func() bool
	// Checkpoint, if non-nil, runs at every multiple of CheckpointEvery
	// the cycle counter reaches (after the cycle's hook) so the caller
	// can persist a mid-job checkpoint (see SnapshotCheckpoint). That
	// includes the leg's last cycle: the engine does not know whether
	// the leg ends the job, so callers that do filter (the Session skips
	// the job's final cycle, which nobody could resume from). A sink
	// error disables further checkpoints for the run instead of failing
	// it: checkpointing is a recovery optimization, never a correctness
	// dependency.
	Checkpoint      func(g *GPU, cycle int64) error
	CheckpointEvery int64
	// Check enables the per-cycle invariant watchdog (see watchdog.go).
	Check CheckConfig
	// Workers sets how many goroutines tick SMs concurrently within one
	// cycle (the response-delivery + SM-tick phase). 0 means 1, the
	// serial loop: a cycle is a few microseconds of work, and on every
	// host measured the per-cycle hand-offs cost more than the fan-out
	// saves (DESIGN.md §16). Clamped to the SM count, and forced to 1
	// when the policy factories share a mutable instance across SMs
	// (e.g. core.GlobalDMIL) — a shared limiter ticked from several
	// goroutines would race. Any value produces byte-identical results:
	// SMs are mutually independent within the parallel phase, and every
	// cross-SM interaction happens in the serial phases in fixed
	// SM-index order.
	Workers int
	// PartWorkers sets how many goroutines tick L2/DRAM partitions
	// concurrently within one cycle. 0 means 1 (serial), as for Workers;
	// clamped to the partition count. Partitions are disjoint by address
	// (mem.PartitionOf) and each owns a private request pool, so any
	// value is byte-identical to serial.
	PartWorkers int
	// PhaseTime enables per-phase wall-time accounting (sm/drain/
	// reqnet/partition/respnet); read it back with PhaseStats or the
	// package-wide PhaseTotals. Off by default: it costs two clock
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
	// pool recycles requests owned by this partition's L2 and DRAM
	// channel, mirroring the per-SM pools: with one shard per partition
	// the partition phase shares no mutable state across partitions and
	// fans out over the worker pool without any staging.
	pool mem.Pool
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

	// Parallel SM phase, parallel partition phase and the overlapped
	// memory-side goroutine (see Step and stepPipelined). All workers
	// are started lazily on the first step and stopped by Close.
	workers        int
	partWorkers    int
	overlap        bool // SM tick N+1 may run concurrently with memory cycle N
	workCh         []chan int64
	stepWG         sync.WaitGroup
	partCh         []chan int64
	partWG         sync.WaitGroup
	memCh          chan int64
	memWG          sync.WaitGroup
	memPending     bool // a memory cycle is in flight on the mem goroutine
	workersStarted bool

	// Per-phase wall-time accounting (Options.PhaseTime). In overlapped
	// mode the mem goroutine owns the reqnet/partition/respnet fields
	// and the main goroutine the rest; reads go through flushPipeline's
	// barrier.
	phaseTime bool
	phase     PhaseStats

	// policies holds the per-SM policy instances currently installed,
	// kept for the shared-instance worker clamp and for the snapshot
	// layer's stateful-policy guard (see snapshot.go).
	policies [][3]any
}

// New builds a GPU running the given kernels under opts.
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
	g := &GPU{
		cfg:       cfg,
		descs:     descs,
		reqNet:    icnt.New(cfg.Icnt, cfg.NumSMs, cfg.NumMemParts),
		respNet:   icnt.New(cfg.Icnt, cfg.NumMemParts, cfg.NumSMs),
		ctrlFlits: icnt.CtrlFlits(cfg.Icnt),
		dataFlits: icnt.DataFlits(cfg.Icnt, cfg.L1D.LineBytes),
	}
	if opts.Trace != nil {
		opts.Trace.EnsureShards(cfg.NumSMs)
	}
	var policies [][3]any
	for i := 0; i < cfg.NumSMs; i++ {
		if len(opts.Quota[i]) != len(descs) {
			return nil, fmt.Errorf("gpu: Quota row %d has %d entries, want %d", i, len(opts.Quota[i]), len(descs))
		}
		var mp sm.MemIssuePolicy
		var lim sm.Limiter
		var gate sm.IssueGate
		if opts.Policies.MemPolicy != nil {
			mp = opts.Policies.MemPolicy(i, len(descs))
		}
		if opts.Policies.Limiter != nil {
			lim = opts.Policies.Limiter(i, len(descs))
		}
		if opts.Policies.Gate != nil {
			gate = opts.Policies.Gate(i, len(descs))
		}
		policies = append(policies, [3]any{mp, lim, gate})
		s := sm.New(i, &g.cfg, descs, opts.Quota[i], mp, lim, gate, cfg.Seed)
		if opts.Series {
			s.EnableSeries(opts.Cycles)
		}
		if opts.UCP.Enabled {
			s.L1.AttachUMON()
		}
		if opts.BypassL1 != nil {
			s.L1.SetBypass(opts.BypassL1)
		}
		s.Trace = opts.Trace
		pool := &mem.Pool{}
		s.Pool = pool
		s.L1.Pool = pool
		g.SMs = append(g.SMs, s)
	}
	for p := 0; p < cfg.NumMemParts; p++ {
		part := &partition{
			l2: cache.New(cfg.L2, len(descs)),
			ch: dram.New(cfg.DRAM, cfg.L2.LineBytes),
		}
		part.l2.Pool = &part.pool
		part.ch.Pool = &part.pool
		g.parts = append(g.parts, part)
	}
	g.policies = policies
	g.workers = effectiveWorkers(opts.Workers, cfg.NumSMs, policies)
	g.partWorkers = effectivePartWorkers(opts.PartWorkers, cfg.NumMemParts)
	g.phaseTime = opts.PhaseTime
	g.resolveOverlap()
	return g, nil
}

// effectiveWorkers resolves the Workers option: 0 means serial, the
// result never exceeds the SM count, and any mutable policy instance
// shared across SMs forces serial ticking.
func effectiveWorkers(requested, numSMs int, policies [][3]any) int {
	w := requested
	if w > numSMs {
		w = numSMs
	}
	if w > 1 && anySharedPolicy(policies) {
		w = 1
	}
	if w < 1 {
		w = 1
	}
	return w
}

// anySharedPolicy reports whether any two SMs received the same policy
// instance. Only pointer identity counts: stateless value
// implementations (e.g. sm.NopLimiter{}) compare equal but carry no
// state, so copies are safe to tick concurrently. A factory that shares
// state behind a non-pointer handle must request Workers=1 itself.
func anySharedPolicy(policies [][3]any) bool {
	for slot := 0; slot < 3; slot++ {
		for i := range policies {
			pi := policies[i][slot]
			if pi == nil {
				continue
			}
			vi := reflect.ValueOf(pi)
			if vi.Kind() != reflect.Pointer {
				continue
			}
			for j := i + 1; j < len(policies); j++ {
				pj := policies[j][slot]
				if pj == nil {
					continue
				}
				vj := reflect.ValueOf(pj)
				if vj.Kind() == reflect.Pointer && vi.Pointer() == vj.Pointer() {
					return true
				}
			}
		}
	}
	return false
}

// effectivePartWorkers resolves the PartWorkers option: 0 means serial,
// clamped to the partition count.
func effectivePartWorkers(requested, numParts int) int {
	w := requested
	if w > numParts {
		w = numParts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// resolveOverlap decides whether the memory side of cycle N may run
// concurrently with the SM phase of cycle N+1. The overlap is only
// byte-identical when the response network imposes at least one cycle
// of traversal latency: with Latency >= 1, nothing respNet.Tick(N)
// stages is poppable at cycle N+1, so committing those deliveries at
// the barrier (after the SM phase of N+1) is indistinguishable from the
// serial order. A fully serial configuration keeps the plain loop —
// overlap with no worker anywhere would only add synchronization.
func (g *GPU) resolveOverlap() {
	g.overlap = (g.workers > 1 || g.partWorkers > 1) && g.cfg.Icnt.Latency >= 1
}

// Workers returns the resolved worker count the engine will use.
func (g *GPU) Workers() int { return g.workers }

// PartWorkers returns the resolved partition worker count.
func (g *GPU) PartWorkers() int { return g.partWorkers }

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
	defer g.Close()
	if err := g.RunCycles(opts); err != nil {
		return nil, err
	}
	return g.Result(), nil
}

// RunCycles advances the machine by opts.Cycles cycles. It returns nil
// on completion, ErrInterrupted (wrapped with the cycle reached) when
// opts.Interrupt reports cancellation, or a *sm.InvariantError when the
// watchdog (opts.Check) detects a conservation violation.
func (g *GPU) RunCycles(opts *Options) error {
	if opts.UCP.Enabled && opts.UCP.Interval <= 0 {
		opts.UCP.Interval = 50 * 1024
	}
	var wd *watchdog
	if opts.Check.Enabled {
		wd = newWatchdog(opts.Check, g.cycle)
	}
	// Hoist the per-cycle polling conditions into precomputed next-fire
	// cycles: the loop body compares one int64 per feature instead of
	// re-evaluating nil checks and modulo arithmetic every cycle.
	const never = int64(^uint64(0) >> 1)
	nextInterrupt := never
	if opts.Interrupt != nil {
		nextInterrupt = g.cycle - g.cycle%interruptInterval
		if nextInterrupt < g.cycle {
			nextInterrupt += interruptInterval
		}
	}
	nextHook := never
	if opts.Hook != nil && opts.HookInterval > 0 {
		// The hook fires after Step, at the first multiple of
		// HookInterval the cycle counter reaches.
		nextHook = (g.cycle/opts.HookInterval + 1) * opts.HookInterval
	}
	ucpNext := never
	if opts.UCP.Enabled {
		ucpNext = g.cycle
	}
	nextCkpt := never
	if opts.Checkpoint != nil && opts.CheckpointEvery > 0 {
		nextCkpt = (g.cycle/opts.CheckpointEvery + 1) * opts.CheckpointEvery
	}
	if g.phaseTime {
		start := g.phase
		defer func() { addPhaseTotals(g.phase.sub(start)) }()
	}
	// Every return path leaves the machine at a committed cycle
	// boundary; deferred flush runs before the phase-totals defer above.
	defer g.flushPipeline()
	// The watchdog observes the whole machine after every cycle, so it
	// forces the fully serial step; otherwise the pipelined step overlaps
	// the memory side of cycle N with the SM phase of cycle N+1 and the
	// loop flushes the pipeline before any point that observes or
	// mutates cross-phase state (UCP repartition, hooks, checkpoints).
	pipelined := g.overlap && wd == nil
	for c := int64(0); c < opts.Cycles; c++ {
		if g.cycle == nextInterrupt {
			if opts.Interrupt() {
				return fmt.Errorf("%w at cycle %d of %d", ErrInterrupted, g.cycle, opts.Cycles)
			}
			nextInterrupt += interruptInterval
		}
		if pipelined {
			g.stepPipelined()
		} else {
			g.Step()
		}
		if wd != nil {
			if err := wd.check(g); err != nil {
				return err
			}
		}
		if g.cycle >= ucpNext {
			g.flushPipeline()
			g.repartitionL1(opts.UCP.MinWays)
			ucpNext = g.cycle + opts.UCP.Interval
		}
		if g.cycle == nextHook {
			g.flushPipeline()
			opts.Hook(g, g.cycle)
			nextHook += opts.HookInterval
		}
		if g.cycle == nextCkpt {
			g.flushPipeline()
			if err := opts.Checkpoint(g, g.cycle); err != nil {
				nextCkpt = never
			} else {
				nextCkpt += opts.CheckpointEvery
			}
		}
	}
	return nil
}

// Step advances the machine by one cycle with every phase executed in
// serial tick order (the SM and partition phases may still fan out over
// their worker pools; each is internally order-free).
//
// The cycle is split into an SM phase, the outbound drain, and the
// memory phase. In the SM phase each SM consumes its private response-
// network ejection port and ticks; SM i touches only SM i's state (its
// warps, L1, pool, trace shard, per-SM policies and the network's per-
// destination queue), so the phase runs on the worker pool when
// Workers > 1 with results byte-identical to serial execution. The same
// holds for partitions: partition p touches only p-indexed crossbar
// ports, its own L2/DRAM and its own pool shard. The crossbar commit
// calls reproduce the serial engine's visibility exactly: the response
// network's tick at cycle c observes pops through cycle c, and both
// networks' deliveries of cycle c become poppable from cycle c+1 on.
func (g *GPU) Step() {
	g.flushPipeline()
	c := g.cycle
	pt := g.phaseTime
	var t0 time.Time
	if pt {
		t0 = time.Now()
	}

	g.smPhaseAll(c)
	if pt {
		t1 := time.Now()
		g.phase.SMNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	g.drain()
	if pt {
		t1 := time.Now()
		g.phase.DrainNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	g.reqNet.Tick(c)
	if pt {
		t1 := time.Now()
		g.phase.ReqNetNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	g.partPhase(c)
	if pt {
		t1 := time.Now()
		g.phase.PartNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}

	g.respNet.CommitPops() // the response tick sees this cycle's SM pops
	g.respNet.Tick(c)
	g.respNet.CommitDeliveries() // poppable from cycle c+1
	g.reqNet.CommitPops()        // partition pops, visible to the next tick
	g.reqNet.CommitDeliveries()  // poppable by partitions from cycle c+1
	if pt {
		g.phase.RespNetNs += time.Since(t0).Nanoseconds()
		g.phase.Cycles++
	}
	g.cycle++
}

// stepPipelined advances the machine by one cycle, overlapping this
// cycle's SM phase with the previous cycle's in-flight memory phase
// (software double-buffering of the response-network ejection port).
//
// Schedule: run SM(c) while mem(c-1) finishes on the mem goroutine;
// barrier; commit both networks' staged deliveries and pops; drain
// SM outbound queues into the request network; launch mem(c) and
// return. The commits at the barrier land in exactly the positions the
// serial Step gives them — pops(c) apply before respNet.Tick(c), which
// runs inside mem(c); deliveries of tick c-1 publish before any cycle-c
// consumer that could pop them (Latency >= 1 makes them unpoppable
// before c+1, which resolveOverlap gates on).
func (g *GPU) stepPipelined() {
	g.startWorkers()
	c := g.cycle
	pt := g.phaseTime
	var t0 time.Time
	if pt {
		t0 = time.Now()
	}

	g.smPhaseAll(c) // concurrent with mem(c-1) on the mem goroutine
	if pt {
		g.phase.SMNs += time.Since(t0).Nanoseconds()
	}

	if g.memPending {
		g.memWG.Wait()
		g.memPending = false
	}
	g.respNet.CommitDeliveries()
	g.respNet.CommitPops()
	g.reqNet.CommitPops()
	g.reqNet.CommitDeliveries()

	if pt {
		t0 = time.Now()
	}
	g.drain()
	if pt {
		g.phase.DrainNs += time.Since(t0).Nanoseconds()
		g.phase.Cycles++
	}

	g.memPending = true
	g.memWG.Add(1)
	g.memCh <- c
	g.cycle++
}

// flushPipeline waits out an in-flight memory phase and commits the
// staged crossbar effects, leaving the machine in the exact state the
// serial engine would have after the same number of Steps. It is a
// no-op on an idle pipeline. Every observation point — watchdog, hooks,
// UCP repartition, checkpoints, snapshots, Result — runs behind it.
func (g *GPU) flushPipeline() {
	if !g.memPending {
		return
	}
	g.memWG.Wait()
	g.memPending = false
	g.respNet.CommitDeliveries()
	g.respNet.CommitPops()
	g.reqNet.CommitPops()
	g.reqNet.CommitDeliveries()
}

// smPhaseAll runs the SM phase for cycle c, inline or on the SM worker
// pool.
func (g *GPU) smPhaseAll(c int64) {
	if g.workers > 1 {
		g.startWorkers()
		g.stepWG.Add(len(g.workCh))
		for _, ch := range g.workCh {
			ch <- c
		}
		g.stepWG.Wait()
	} else {
		for i := range g.SMs {
			g.smPhase(i, c)
		}
	}
}

// smPhase delivers pending memory responses to SM i and ticks it. It
// touches only SM i's state and is safe to run concurrently with other
// SMs' phases.
func (g *GPU) smPhase(i int, c int64) {
	s := g.SMs[i]
	for {
		resp := g.respNet.Pop(i, c)
		if resp == nil {
			break
		}
		s.Deliver(resp, c)
	}
	s.Tick(c)
}

// drain moves each SM's L1 miss queue head into the request network, in
// strict SM-index order (the injection queues are shared state).
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

// partPhase ticks every partition for cycle c, inline or on the
// partition worker pool. Partitions are mutually disjoint — partition p
// touches only the p-indexed crossbar ports, its own L2/DRAM state and
// its own pool shard — so no staging or commit order is needed.
func (g *GPU) partPhase(c int64) {
	if g.partWorkers > 1 {
		g.startWorkers()
		g.partWG.Add(len(g.partCh))
		for _, ch := range g.partCh {
			ch <- c
		}
		g.partWG.Wait()
	} else {
		for p, part := range g.parts {
			g.tickPartition(p, part, c)
		}
	}
}

// memPhase executes the memory side of cycle c: request-network tick,
// partition ticks, response-network tick. In pipelined mode it runs on
// the mem goroutine, concurrently with the SM phase of cycle c+1; the
// commits belonging to cycle c happen at the caller's barrier.
func (g *GPU) memPhase(c int64) {
	pt := g.phaseTime
	var t0 time.Time
	if pt {
		t0 = time.Now()
	}
	g.reqNet.Tick(c)
	if pt {
		t1 := time.Now()
		g.phase.ReqNetNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}
	g.partPhase(c)
	if pt {
		t1 := time.Now()
		g.phase.PartNs += t1.Sub(t0).Nanoseconds()
		t0 = t1
	}
	g.respNet.Tick(c)
	if pt {
		g.phase.RespNetNs += time.Since(t0).Nanoseconds()
	}
}

// startWorkers lazily spins up the persistent worker pools: SM workers
// each owning a contiguous SM range, partition workers each owning a
// contiguous partition range, and — when phase overlap is enabled — the
// mem goroutine that executes whole memory cycles.
func (g *GPU) startWorkers() {
	if g.workersStarted {
		return
	}
	g.workersStarted = true
	if g.workers > 1 {
		n := len(g.SMs)
		g.workCh = make([]chan int64, g.workers)
		for w := 0; w < g.workers; w++ {
			lo, hi := n*w/g.workers, n*(w+1)/g.workers
			ch := make(chan int64, 1)
			g.workCh[w] = ch
			go func() {
				for c := range ch {
					for i := lo; i < hi; i++ {
						g.smPhase(i, c)
					}
					g.stepWG.Done()
				}
			}()
		}
	}
	if g.partWorkers > 1 {
		n := len(g.parts)
		g.partCh = make([]chan int64, g.partWorkers)
		for w := 0; w < g.partWorkers; w++ {
			lo, hi := n*w/g.partWorkers, n*(w+1)/g.partWorkers
			ch := make(chan int64, 1)
			g.partCh[w] = ch
			go func() {
				for c := range ch {
					for p := lo; p < hi; p++ {
						g.tickPartition(p, g.parts[p], c)
					}
					g.partWG.Done()
				}
			}()
		}
	}
	if g.overlap {
		ch := make(chan int64, 1)
		g.memCh = ch
		go func() {
			for c := range ch {
				g.memPhase(c)
				g.memWG.Done()
			}
		}()
	}
}

// Close flushes any in-flight memory cycle and stops the worker pools.
// It is safe to call multiple times and on a GPU that never started
// workers; the GPU must not be stepped after. Run closes automatically;
// callers driving RunCycles themselves should defer Close.
func (g *GPU) Close() {
	g.flushPipeline()
	if !g.workersStarted {
		return
	}
	g.workersStarted = false
	for _, ch := range g.workCh {
		close(ch)
	}
	g.workCh = nil
	for _, ch := range g.partCh {
		close(ch)
	}
	g.partCh = nil
	if g.memCh != nil {
		close(g.memCh)
		g.memCh = nil
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
				part.pool.Release(req)
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
				part.pool.Release(t)
			}
		}
		part.pool.Release(fill)
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

// repartitionL1 recomputes every SM's L1D way partition from its UMON
// (the UCP lookahead algorithm).
func (g *GPU) repartitionL1(minWays int) {
	if len(g.descs) < 2 {
		return
	}
	for _, s := range g.SMs {
		u := s.L1.UMONRef()
		if u == nil {
			continue
		}
		s.L1.SetPartition(u.Lookahead(minWays))
		u.ResetCounters()
	}
}

// Result aggregates statistics across SMs.
func (g *GPU) Result() *stats.RunResult {
	g.flushPipeline()
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

// DumpMemState prints memory-system occupancy and statistics to stdout
// (development and debugging aid used by cmd/ckedebug). Reservation
// failures are split by the resource that was missing — MSHR, miss
// queue, line — for every L2 partition and every L1: which one a
// workload starves on is the paper's Figure 6 question.
func (g *GPU) DumpMemState() {
	g.flushPipeline()
	fmt.Printf("reqNet flits=%d respNet flits=%d\n", g.reqNet.TransferredFlits, g.respNet.TransferredFlits)
	sum := func(st []cache.KernelStats) (t cache.KernelStats) {
		for _, s := range st {
			t.Accesses += s.Accesses
			t.Misses += s.Misses
			t.RsFailMSHR += s.RsFailMSHR
			t.RsFailMQ += s.RsFailMQ
			t.RsFailLine += s.RsFailLine
		}
		return t
	}
	for p, part := range g.parts {
		t := sum(part.l2.Stats)
		fmt.Printf("part%d: l2 acc=%d miss=%d rsfail[mshr=%d missq=%d line=%d] mshr=%d missq=%d inQ=%d resp=%d dram: served=%d rowhit=%d q=%d\n",
			p, t.Accesses, t.Misses, t.RsFailMSHR, t.RsFailMQ, t.RsFailLine,
			part.l2.MSHRInUse(), part.l2.MissQueueLen(),
			part.inQ.Len(), part.resp.Len(),
			part.ch.Served, part.ch.RowHits, part.ch.QueueLen())
	}
	for _, s := range g.SMs {
		t := sum(s.L1.Stats)
		fmt.Printf("sm%d: l1 rsfail[mshr=%d missq=%d line=%d] mshr=%d missq=%d lsuStall=%d\n",
			s.ID, t.RsFailMSHR, t.RsFailMQ, t.RsFailLine, s.L1.MSHRInUse(), s.L1.MissQueueLen(), s.LSUStall)
	}
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
