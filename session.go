package gcke

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Session runs simulations against one fixed architecture configuration
// and caches isolated profiles — one kernel alone at a number of TBs per
// SM — from which Warped-Slicer's scalability curves, SMK-(P+W) and the
// normalization of every metric are read.
//
// A Session is safe for concurrent use. Exactly one profiling simulation
// runs per (kernel, occupancy) point however many goroutines need it,
// and they share the points out instead of queuing (see fetch). Cached
// results are shared and must be treated as immutable by callers. Set
// the exported fields before the Session is shared across goroutines.
type Session struct {
	cfg    Config
	cycles int64
	// ProfileCycles is the length of isolated profiling runs (defaults
	// to the evaluation length).
	ProfileCycles int64
	// Check enables the simulator's per-cycle invariant watchdog on
	// every run started through this session, profiles included.
	Check bool
	// Deprecated: Workers is never read. The engine's intra-cycle
	// fan-out is gone; the field survives because bench/engine.go:74 and
	// bench/serve.go:458 assign it.
	Workers int
	// Deprecated: PartWorkers is never read; see Workers
	// (bench/engine.go:74, bench/serve.go:458).
	PartWorkers int
	// PhaseTime enables per-phase wall-clock counters on every run
	// (gpu.Options.PhaseTime); read the totals via gpu.PhaseTotals.
	PhaseTime bool
	// Trace, when non-nil, receives the cycle-level events of every
	// evaluation run (profiles are never traced); runs that share it
	// interleave their events.
	Trace *trace.Buffer

	mu       sync.Mutex
	profiles map[profileKey]*profileEntry // the profile table, guarded by mu

	// onProfile, when set (by tests), is called on the simulating
	// goroutine before every isolated profile simulation.
	onProfile func(ctx context.Context, kernel string, tbs int)
}

// NewSession creates a session simulating cycles cycles per run.
func NewSession(cfg Config, cycles int64) *Session {
	return &Session{
		cfg:           cfg,
		cycles:        cycles,
		ProfileCycles: cycles,
		profiles:      make(map[profileKey]*profileEntry),
	}
}

// Config returns the session's architecture configuration.
func (s *Session) Config() Config { return s.cfg }

// Cycles returns the evaluation run length.
func (s *Session) Cycles() int64 { return s.cycles }

// observers lists what runs between the cycles of a run of end cycles,
// in the order the engine runs them when several are due at once: the
// invariant watchdog (with Check), then extra — UCP repartitioning, the
// scheme's controller hooks — then the poll of ctx (the cycle loop is
// synchronous, so cancellation is polled every 1024 cycles rather than
// select-driven).
func (s *Session) observers(ctx context.Context, end int64, extra ...gpu.Observer) []gpu.Observer {
	var obs []gpu.Observer
	if s.Check {
		obs = append(obs, gpu.Watchdog(0, gpu.DefaultProgressWindow))
	}
	obs = append(obs, extra...)
	if ctx != nil && ctx.Done() != nil {
		obs = append(obs, gpu.Interrupt(0, end, func() bool { return ctx.Err() != nil }))
	}
	return obs
}

// wrapInterrupt attaches the context's cancellation cause to a run
// interruption so callers can test errors.Is(err, context.Canceled) or
// context.DeadlineExceeded on top of gpu.ErrInterrupted.
func wrapInterrupt(ctx context.Context, err error) error {
	if err == nil || ctx == nil {
		return err
	}
	if cause := ctx.Err(); cause != nil && errors.Is(err, gpu.ErrInterrupted) {
		return fmt.Errorf("%w (%w)", err, cause)
	}
	return err
}

// simsInFlight counts the simulations the Sessions of this process are
// running right now, profile and evaluation alike (execute keeps it). It
// is process-wide because what it is compared with is: a claim pass may
// only put helpers on cores (GOMAXPROCS) that no simulation of any
// session is using.
var simsInFlight atomic.Int64

// profileKey names one isolated profile simulation: kernel d alone at
// tbs TBs per SM for ProfileCycles cycles. The whole descriptor is the
// key, as it is of a job's fingerprint, so a custom kernel never shares
// a profile with another kernel of the same name.
type profileKey struct {
	d   Kernel
	tbs int
}

// profileEntry is one row of the profile table: in flight until done is
// closed, cached after. The leader fills r and err before it closes done,
// and takes the entry out of the table first when its simulation fails,
// so an entry settled in the table always holds a whole result.
type profileEntry struct {
	done chan struct{}
	r    *RunResult
	err  error
}

// settled reports whether e's leader has finished.
func (e *profileEntry) settled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// profile returns the table's entry for point k, simulating the point
// when the table has none. With wait it waits for an entry in flight;
// without, it returns (nil, nil) at once for one (fetch's claim pass).
//
// A point is simulated under its leader's ctx, so a leader that is
// cancelled hands gpu.ErrInterrupted to every waiter. Nothing interrupted
// is ever cached; a caller whose own ctx is still live claims the point
// again and, if it is free by then, leads it.
func (s *Session) profile(ctx context.Context, k profileKey, wait bool) (*profileEntry, error) {
	for {
		s.mu.Lock()
		e := s.profiles[k]
		lead := e == nil
		if lead {
			e = &profileEntry{done: make(chan struct{})}
			s.profiles[k] = e
		}
		s.mu.Unlock()
		if lead {
			s.lead(ctx, k, e)
		} else if !wait && !e.settled() {
			return nil, nil
		}
		<-e.done
		if errors.Is(e.err, gpu.ErrInterrupted) && (ctx == nil || ctx.Err() == nil) {
			continue
		}
		return e, e.err
	}
}

// lead simulates point k into e, the entry this goroutine put in the
// table. A simulation that fails or panics takes e out of the table
// before it releases the waiters; a panic reaches them as an error naming
// it and goes on in the leader.
func (s *Session) lead(ctx context.Context, k profileKey, e *profileEntry) {
	defer func() {
		p := recover()
		if p != nil {
			e.err = fmt.Errorf("gcke: profile of %s at %d TBs per SM panicked: %v", k.d.Name, k.tbs, p)
		}
		if e.err != nil {
			s.mu.Lock()
			delete(s.profiles, k)
			s.mu.Unlock()
		}
		close(e.done)
		if p != nil {
			panic(p)
		}
	}()
	if s.onProfile != nil {
		s.onProfile(ctx, k.d.Name, k.tbs)
	}
	e.r, e.err = s.execute(ctx, []*kern.Desc{&k.d}, &gpu.Options{
		Cycles:    s.ProfileCycles,
		Quota:     gpu.UniformQuota(s.cfg.NumSMs, []int{k.tbs}),
		PhaseTime: s.PhaseTime,
	}, nil)
}

// points lists the profile points of ds, costliest first: each kernel's
// full-occupancy run, in the order of ds (the normalization base, and
// the last point of the kernel's curve), then, with curves, the curve
// points below full occupancy by descending TB count, so that a pass
// shared between goroutines ends on a short simulation.
func (s *Session) points(ds []Kernel, curves bool) []profileKey {
	pts := make([]profileKey, len(ds))
	top := 0 // the largest full occupancy; 0 without curves
	for i := range ds {
		pts[i] = profileKey{ds[i], ds[i].MaxTBsPerSM(&s.cfg)}
		if curves {
			top = max(top, pts[i].tbs)
		}
	}
	for n := top - 1; n >= 1; n-- {
		for i := range ds {
			if n < pts[i].tbs {
				pts = append(pts, profileKey{ds[i], n})
			}
		}
	}
	return pts
}

// curves reads the scalability curve of each kernel of ds — isolated
// IPC with 1..max TBs per SM (Figure 3(a)) — from rs, the results of
// fetching points(ds, true).
func curves(ds []Kernel, pts []profileKey, rs []*RunResult) [][]float64 {
	out := make([][]float64, len(ds))
	for i := range ds {
		out[i] = make([]float64, pts[i].tbs)
		for j, k := range pts {
			if k.d == ds[i] {
				out[i][k.tbs-1] = rs[j].Kernels[0].IPC
			}
		}
	}
	return out
}

// fetch returns the results of points pts, in their order; every public
// call that needs profiles makes exactly one. A warm session answers it
// under one lock. Otherwise the claim pass (claim) simulates each point
// nobody has started and skips, without waiting, the ones another
// goroutine is simulating, and the wait pass then parks on whatever is
// still in flight: calls that need the same points split them between
// their goroutines instead of queuing behind one point at a time.
func (s *Session) fetch(ctx context.Context, pts []profileKey) ([]*RunResult, error) {
	rs := make([]*RunResult, len(pts))
	var todo []profileKey
	s.mu.Lock()
	for i, k := range pts {
		if e := s.profiles[k]; e != nil && e.settled() {
			rs[i] = e.r
		} else {
			todo = append(todo, k)
		}
	}
	s.mu.Unlock()
	if err := s.claim(ctx, todo); err != nil {
		return nil, err
	}
	for i, k := range pts {
		if rs[i] == nil {
			e, err := s.profile(ctx, k, true)
			if err != nil {
				return nil, err
			}
			rs[i] = e.r
		}
	}
	return rs, nil
}

// claim is fetch's claim pass over the uncached points todo. While
// fewer simulations are in flight in this process than GOMAXPROCS, it
// starts min(len(todo)-1, GOMAXPROCS - 1 for the caller - simsInFlight)
// helper goroutines that run the same loop under the same ctx, and joins
// them on every way out: a caller with idle cores beside it gets them,
// a pool that keeps every core busy gets none, and so does GOMAXPROCS=1.
// The count is read, not reserved: callers that decide in the same
// instant may start a goroutine too many, which costs a time slice, not
// a simulation. A helper takes whole simulations, so the hand-off is
// paid once per simulation, not once per cycle.
func (s *Session) claim(ctx context.Context, todo []profileKey) (err error) {
	// stop ends the pass early for everybody once one participant fails
	// (or panics): its error is the call's, more profiles are not wanted.
	var stop atomic.Bool
	loop := func() error {
		for _, k := range todo {
			if stop.Load() {
				return nil
			}
			if _, perr := s.profile(ctx, k, false); perr != nil {
				stop.Store(true)
				return perr
			}
		}
		return nil
	}
	helpers := max(0, min(len(todo)-1, runtime.GOMAXPROCS(0)-1-int(simsInFlight.Load())))
	helperErrs := make([]error, helpers)
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
		for _, herr := range helperErrs {
			if err == nil {
				err = herr
			}
		}
	}()
	for h := range helperErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The runner contains a job's panics; one on this goroutine
			// would take the process down instead, so it becomes the
			// pass's error.
			defer func() {
				if r := recover(); r != nil {
					stop.Store(true)
					helperErrs[h] = fmt.Errorf("gcke: profile helper panicked: %v", r)
				}
			}()
			helperErrs[h] = loop()
		}()
	}
	return loop()
}

// RunIsolated simulates kernel d alone at full occupancy and caches the
// result.
func (s *Session) RunIsolated(d Kernel) (*RunResult, error) {
	return s.RunIsolatedCtx(context.Background(), d)
}

// RunIsolatedCtx is RunIsolated honouring ctx cancellation. Profile
// simulations are deduplicated across goroutines, so a run started on
// behalf of several waiters is interrupted only when the leader's ctx
// is cancelled; interrupted results are never cached, and a waiter
// whose own ctx is live re-runs the profile.
func (s *Session) RunIsolatedCtx(ctx context.Context, d Kernel) (*RunResult, error) {
	rs, err := s.fetch(ctx, s.points([]Kernel{d}, false))
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Curve returns kernel d's scalability curve: isolated IPC with 1..max
// TBs per SM (Figure 3(a)).
func (s *Session) Curve(d Kernel) ([]float64, error) {
	return s.CurveCtx(context.Background(), d)
}

// CurveCtx is Curve honouring ctx cancellation.
func (s *Session) CurveCtx(ctx context.Context, d Kernel) ([]float64, error) {
	ds := []Kernel{d}
	pts := s.points(ds, true)
	rs, err := s.fetch(ctx, pts)
	if err != nil {
		return nil, err
	}
	return curves(ds, pts, rs)[0], nil
}

// Classify returns the measured class of kernel d, read from its
// isolated run by the paper's rule (kern.Classify).
func (s *Session) Classify(d Kernel) (kern.Class, error) {
	r, err := s.RunIsolated(d)
	if err != nil {
		return kern.Compute, err
	}
	return kern.Classify(r.LSUStallFrac()), nil
}

// Partition computes the per-SM TB partition a scheme would use for the
// workload, plus the theoretical Weighted Speedup at that point (only
// meaningful for Warped-Slicer, the one kind read from profiles).
func (s *Session) Partition(ds []Kernel, kind PartitionKind, manual []int) ([]int, float64, error) {
	descs := toPtrs(ds)
	switch kind {
	case PartitionWarpedSlicer:
		pts := s.points(ds, true)
		rs, err := s.fetch(context.Background(), pts)
		if err != nil {
			return nil, 0, err
		}
		return core.SweetSpot(&s.cfg, descs, curves(ds, pts, rs))
	case PartitionSMK:
		return core.DRFPartition(&s.cfg, descs), 0, nil
	case PartitionLeftover:
		return core.LeftoverQuota(&s.cfg, descs), 0, nil
	case PartitionEven:
		return core.EvenQuota(&s.cfg, descs), 0, nil
	case PartitionManual:
		if len(manual) != len(ds) {
			return nil, 0, fmt.Errorf("gcke: ManualTBs must have one entry per kernel")
		}
		for i, n := range manual {
			if max := ds[i].MaxTBsPerSM(&s.cfg); n < 1 || n > max {
				return nil, 0, fmt.Errorf("gcke: ManualTBs %v: %s runs 1..%d TBs per SM, not %d", manual, ds[i].Name, max, n)
			}
		}
		if !core.Fits(&s.cfg, descs, manual) {
			return nil, 0, fmt.Errorf("gcke: ManualTBs %v does not fit one SM", manual)
		}
		return append([]int(nil), manual...), 0, nil
	case PartitionSpatial:
		return nil, 0, nil // spatial uses a per-SM matrix, not one row
	default:
		return nil, 0, fmt.Errorf("gcke: unknown partition kind %v", kind)
	}
}

// The periods of a scheme's periodic mechanisms, in cycles: the
// controllers' hooks, SMK's warp-instruction quota epoch and UCP's
// repartition interval.
const (
	hookEvery   = 1024
	smkEpoch    = 10 * 1024
	ucpInterval = 50 * 1024
)

// RunWorkload simulates the kernels concurrently under scheme.
func (s *Session) RunWorkload(ds []Kernel, scheme Scheme) (*WorkloadResult, error) {
	return s.RunWorkloadCtx(context.Background(), ds, scheme)
}

// RunWorkloadCtx is RunWorkload honouring ctx: cancellation (or a
// deadline) interrupts the evaluation run and any profiling runs it
// triggers, returning an error wrapping both gpu.ErrInterrupted and the
// context's cause.
func (s *Session) RunWorkloadCtx(ctx context.Context, ds []Kernel, scheme Scheme) (*WorkloadResult, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("gcke: empty workload")
	}
	if err := scheme.Validate(len(ds)); err != nil {
		return nil, err
	}
	descs := toPtrs(ds)

	// The partition first, so that a manual one that cannot run, or a
	// dynamic one whose run ends before its partition applies, fails
	// before any simulation.
	var quota [][]int
	var row []int
	var theoWS float64
	var dynws *core.DynWS
	switch scheme.Partition {
	case PartitionSpatial:
		quota = core.SpatialQuota(&s.cfg, descs)
	case PartitionWarpedSlicerDyn:
		// Online profiling from the even partition: the hook's first
		// call, at hookEvery, starts it, and the partition applies
		// ProfilingCycles later; a run that ends there never runs at it.
		dynws = core.NewDynWS(&s.cfg, descs)
		if at := hookEvery + dynws.ProfilingCycles(); s.cycles <= at {
			return nil, fmt.Errorf("gcke: a %d-cycle run is too short for dynamic Warped-Slicer: it profiles online until cycle %d (%d + %d profiling cycles) and must run past it",
				s.cycles, at, hookEvery, dynws.ProfilingCycles())
		}
		quota = gpu.UniformQuota(s.cfg.NumSMs, core.EvenQuota(&s.cfg, descs))
	case PartitionWarpedSlicer:
		// Read from the curves the one fetch below brings.
	default:
		var err error
		if row, theoWS, err = s.Partition(ds, scheme.Partition, scheme.ManualTBs); err != nil {
			return nil, err
		}
	}

	// One fetch: each kernel's full-occupancy run, the normalization
	// base, and under Warped-Slicer every curve.
	ws := scheme.Partition == PartitionWarpedSlicer
	pts := s.points(ds, ws)
	rs, err := s.fetch(ctx, pts)
	if err != nil {
		return nil, err
	}
	if ws {
		if row, theoWS, err = core.SweetSpot(&s.cfg, descs, curves(ds, pts, rs)); err != nil {
			return nil, err
		}
	}
	if quota == nil {
		quota = gpu.UniformQuota(s.cfg.NumSMs, row)
	}
	isolated := make([]float64, len(ds))
	for i := range ds {
		isolated[i] = rs[i].Kernels[0].IPC
	}

	opts := &gpu.Options{
		Cycles:    s.cycles,
		Quota:     quota,
		Trace:     s.Trace,
		Series:    scheme.Series,
		PhaseTime: s.PhaseTime,
	}
	// What the scheme runs between cycles, in this order: UCP cache
	// partitioning every ucpInterval cycles, then the controllers' hooks
	// every hookEvery cycles.
	var managed []gpu.Observer
	if scheme.UCP {
		opts.UCP = true
		managed = append(managed, gpu.Repartition(0, ucpInterval))
	}
	if dynws != nil {
		managed = append(managed, gpu.Periodic(0, hookEvery, dynws.Hook))
	}
	if scheme.TBThrottle {
		// Validate already rejected the partitionless kinds.
		managed = append(managed, gpu.Periodic(0, hookEvery, core.NewTBThrottle(row).Hook))
	}

	// Memory issue policy.
	switch scheme.MemIssue {
	case MemIssueRBMI:
		opts.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewRBMI(n) }
	case MemIssueQBMI:
		initRPM := make([]int, len(ds))
		for i := range ds {
			initRPM[i] = ds[i].ReqPerMinst
		}
		allZero := scheme.QBMIRefreshAllZero
		opts.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy {
			q := core.NewQBMI(n, initRPM)
			q.RefreshAllZero = allZero
			return q
		}
	}

	// Limiter.
	switch scheme.Limiting {
	case LimitStatic:
		lims := append([]int(nil), scheme.StaticLimits...)
		opts.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewSMIL(lims) }
	case LimitDMIL:
		opts.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
	case LimitGlobalDMIL:
		shared := core.NewGlobalDMIL(len(ds))
		opts.Policies.Limiter = func(smID, n int) sm.Limiter { return shared }
	case LimitL2MIL:
		shared := core.NewL2MIL(len(ds))
		opts.Policies.Limiter = func(smID, n int) sm.Limiter { return shared }
		managed = append(managed, gpu.Periodic(0, hookEvery, shared.Hook))
	}

	// SMK warp-instruction quota.
	if scheme.SMKQuota {
		iso := append([]float64(nil), isolated...)
		// Per-SM share of the machine-wide isolated IPC.
		for i := range iso {
			iso[i] /= float64(s.cfg.NumSMs)
		}
		opts.Policies.Gate = func(smID, n int) sm.IssueGate { return core.NewSMKGate(iso, smkEpoch) }
	}

	// Cache bypassing (Section 4.5 interplay study).
	if scheme.BypassL1 != nil {
		opts.BypassL1 = append([]bool(nil), scheme.BypassL1...)
	}

	// Last between cycles: the in-flight and limit samples, which see
	// what the controllers' hooks left.
	var samples *memSeries
	if scheme.Series {
		samples = newMemSeries(len(ds))
		if scheme.Limiting == LimitDMIL {
			samples.watch(&opts.Policies, s.cfg.NumSMs)
		}
		managed = append(managed, gpu.Periodic(0, hookEvery, samples.sample))
	}

	res, err := s.execute(ctx, descs, opts, managed)
	if err != nil {
		return nil, err
	}
	if samples != nil {
		samples.attach(res)
	}
	if dynws != nil {
		row = dynws.Partition
		theoWS = dynws.TheoreticalWS
	}
	return &WorkloadResult{
		RunResult:     res,
		Scheme:        scheme,
		TBPartition:   row,
		IsolatedIPC:   isolated,
		TheoreticalWS: theoWS,
	}, nil
}

// execute builds a machine and runs it from cycle 0 for opts.Cycles
// cycles: the one path of every simulation a Session starts, profile
// (lead) and evaluation alike, and the span simsInFlight counts. managed
// is what the scheme runs between cycles.
func (s *Session) execute(ctx context.Context, descs []*kern.Desc, opts *gpu.Options, managed []gpu.Observer) (*stats.RunResult, error) {
	simsInFlight.Add(1)
	defer simsInFlight.Add(-1)
	g, err := gpu.New(s.cfg, descs, opts)
	if err != nil {
		return nil, err
	}
	opts.Observers = s.observers(ctx, opts.Cycles, managed...)
	if err := g.RunCycles(opts); err != nil {
		return nil, wrapInterrupt(ctx, err)
	}
	res := g.Result()
	g.Close()
	return res, nil
}

// memSeries samples what Scheme.Series adds to the bucketed series: per
// kernel, the in-flight memory instructions and, when watching DMIL, the
// limiting number, each summed over SMs (see stats.Series).
type memSeries struct {
	dmils    []*core.DMIL // per SM; nil when not watching DMIL
	inflight [][]uint32   // [kernel][sample]
	limit    [][]uint32
}

func newMemSeries(kernels int) *memSeries {
	return &memSeries{inflight: make([][]uint32, kernels), limit: make([][]uint32, kernels)}
}

// watch wraps p's DMIL factory so that the samples can read the limiter
// each SM holds.
func (m *memSeries) watch(p *gpu.PolicyFactory, numSMs int) {
	m.dmils = make([]*core.DMIL, numSMs)
	build := p.Limiter
	p.Limiter = func(smID, n int) sm.Limiter {
		l := build(smID, n)
		m.dmils[smID] = l.(*core.DMIL)
		return l
	}
}

func (m *memSeries) sample(g *gpu.GPU) error {
	for k := range m.inflight {
		var inflight, limit uint32
		for i, smi := range g.SMs {
			inflight += uint32(smi.Inflight(k))
			if m.dmils != nil {
				limit += uint32(m.dmils[i].Limit(k))
			}
		}
		m.inflight[k] = append(m.inflight[k], inflight)
		if m.dmils != nil {
			m.limit[k] = append(m.limit[k], limit)
		}
	}
	return nil
}

// attach stores the samples in res, whose kernels carry series already.
func (m *memSeries) attach(res *stats.RunResult) {
	for k := range res.Kernels {
		res.Kernels[k].Series.Inflight = m.inflight[k]
		res.Kernels[k].Series.Limit = m.limit[k]
	}
}

func toPtrs(ds []Kernel) []*kern.Desc {
	out := make([]*kern.Desc, len(ds))
	for i := range ds {
		d := ds[i]
		out[i] = &d
	}
	return out
}
