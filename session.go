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
// and caches isolated-execution profiles (IPCs and scalability curves),
// which Warped-Slicer, SMK-(P+W) and the normalization of every metric
// depend on.
//
// A Session is safe for concurrent use: its one profile table is guarded
// by a mutex and concurrent requests for the same uncached profile are
// deduplicated, so exactly one profiling simulation runs per (kernel,
// occupancy) point no matter how many workers need it; workers that
// need the same points share them out instead of queuing, and a caller
// with idle cores beside it profiles on those too (see claimProfiles) —
// the only goroutines a Session starts besides the checkpoint writer,
// each joined before the call that started it returns. Cached results
// are shared and must be treated as immutable by callers. The only
// exception is ProfileCycles, which must be set before the Session is
// shared across goroutines.
type Session struct {
	cfg    Config
	cycles int64
	// ProfileCycles is the length of isolated profiling runs (defaults
	// to the evaluation length). Set it before sharing the Session.
	ProfileCycles int64
	// Check enables the simulator's per-cycle invariant watchdog on
	// every run started through this session (evaluation and profiling
	// alike). Set it before sharing the Session.
	Check bool
	// Deprecated: Workers is never read. The engine's intra-cycle
	// fan-out is gone; the field survives because bench/engine.go:74 and
	// bench/serve.go:458 assign it.
	Workers int
	// Deprecated: PartWorkers is never read; see Workers
	// (bench/engine.go:74, bench/serve.go:458).
	PartWorkers int
	// PhaseTime enables per-phase wall-clock counters on every run
	// (gpu.Options.PhaseTime); read the totals via gpu.PhaseTotals. Set it
	// before sharing the Session.
	PhaseTime bool
	// Trace, when non-nil, receives the cycle-level events of every
	// evaluation run (profiles are never traced). Runs that share it
	// interleave their events, and a run resumed from a checkpoint would
	// miss the cycles it skipped, so a traced run never resumes. Set it
	// before sharing the Session.
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

// observers lists what runs between the cycles of one leg, from start
// to end, in the order the engine runs them when several are due at
// once: the invariant watchdog (with Check), then extra — UCP
// repartitioning, the scheme's controller hooks, the checkpoint sink —
// then the poll of ctx (the cycle loop is synchronous, so cancellation
// is polled every 1024 cycles rather than select-driven).
func (s *Session) observers(ctx context.Context, start, end int64, extra ...gpu.Observer) []gpu.Observer {
	var obs []gpu.Observer
	if s.Check {
		obs = append(obs, gpu.Watchdog(start, gpu.DefaultProgressWindow))
	}
	obs = append(obs, extra...)
	if ctx != nil && ctx.Done() != nil {
		obs = append(obs, gpu.Interrupt(start, end, func() bool { return ctx.Err() != nil }))
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
// running right now, profile and evaluation alike. It is process-wide
// because what it is compared with is: a claim pass may only put helpers
// on cores (GOMAXPROCS) that no simulation of any session is using.
var simsInFlight atomic.Int64

// simulating counts the caller as one simulation in flight until the
// returned function is called: defer simulating()(). A profile counts
// from its hook on, an evaluation from building the machine to its
// result (both warm-up legs included: erring on the busy side starts
// fewer helpers, never more).
func simulating() func() {
	simsInFlight.Add(1)
	return func() { simsInFlight.Add(-1) }
}

// profileKey names one isolated profile simulation: kernel d alone at
// tbs TBs per SM, with 1 K-cycle series or without. The whole descriptor
// is the key, as it is of a job's fingerprint, so a custom kernel never
// shares a profile with another kernel of the same name.
type profileKey struct {
	d      Kernel
	tbs    int
	series bool
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

// cached reports whether the table holds point k settled. s.mu must be
// held.
func (s *Session) cached(k profileKey) bool {
	e := s.profiles[k]
	return e != nil && e.settled()
}

// profile returns the table's entry for point k, simulating the point
// when the table has none. With wait it waits for an entry in flight;
// without, it returns (nil, nil) at once for one (the claim pass of
// claimProfiles).
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
	defer simulating()()
	if s.onProfile != nil {
		s.onProfile(ctx, k.d.Name, k.tbs)
	}
	cycles := s.ProfileCycles
	if k.series {
		cycles = s.cycles
	}
	e.r, e.err = gpu.Run(s.cfg, []*kern.Desc{&k.d}, &gpu.Options{
		Cycles:    cycles,
		Quota:     gpu.UniformQuota(s.cfg.NumSMs, []int{k.tbs}),
		Series:    k.series,
		Observers: s.observers(ctx, 0, cycles),
		PhaseTime: s.PhaseTime,
	})
	e.err = wrapInterrupt(ctx, e.err)
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
	return s.isolated(ctx, d, false)
}

// RunIsolatedSeries is RunIsolated with 1 K-cycle series collection.
func (s *Session) RunIsolatedSeries(d Kernel) (*RunResult, error) {
	return s.RunIsolatedSeriesCtx(context.Background(), d)
}

// RunIsolatedSeriesCtx is RunIsolatedSeries honouring ctx cancellation.
func (s *Session) RunIsolatedSeriesCtx(ctx context.Context, d Kernel) (*RunResult, error) {
	return s.isolated(ctx, d, true)
}

// isolated is kernel d's full-occupancy point, which without series is
// also the last point of its scalability curve.
func (s *Session) isolated(ctx context.Context, d Kernel, series bool) (*RunResult, error) {
	e, err := s.profile(ctx, profileKey{d, d.MaxTBsPerSM(&s.cfg), series}, true)
	if err != nil {
		return nil, err
	}
	return e.r, nil
}

// IsolatedIPC returns kernel d's isolated IPC at n TBs per SM (cached),
// for n in 1..d.MaxTBsPerSM.
func (s *Session) IsolatedIPC(d Kernel, n int) (float64, error) {
	return s.IsolatedIPCCtx(context.Background(), d, n)
}

// IsolatedIPCCtx is IsolatedIPC honouring ctx cancellation.
func (s *Session) IsolatedIPCCtx(ctx context.Context, d Kernel, n int) (float64, error) {
	if max := d.MaxTBsPerSM(&s.cfg); n < 1 || n > max {
		return 0, fmt.Errorf("gcke: %s runs 1..%d TBs per SM, not %d", d.Name, max, n)
	}
	e, err := s.profile(ctx, profileKey{d, n, false}, true)
	if err != nil {
		return 0, err
	}
	return e.r.Kernels[0].IPC, nil
}

// Curve returns kernel d's scalability curve: isolated IPC with 1..max
// TBs per SM (Figure 3(a)).
func (s *Session) Curve(d Kernel) ([]float64, error) {
	return s.CurveCtx(context.Background(), d)
}

// CurveCtx is Curve honouring ctx cancellation. Like a job, it claims
// the points nobody has started (on the idle cores too, see
// claimProfiles) before it waits for the rest.
func (s *Session) CurveCtx(ctx context.Context, d Kernel) ([]float64, error) {
	if err := s.claimProfiles(ctx, []Kernel{d}, true); err != nil {
		return nil, err
	}
	max := d.MaxTBsPerSM(&s.cfg)
	out := make([]float64, max)
	for n := 1; n <= max; n++ {
		v, err := s.IsolatedIPCCtx(ctx, d, n)
		if err != nil {
			return nil, err
		}
		out[n-1] = v
	}
	return out, nil
}

// uncachedPoints lists, under one lock, the profile points of ds that
// are not cached, costliest first: the full-occupancy runs, then (with
// curves) the curve points below full occupancy by descending TB count,
// so that a pass shared between goroutines ends on a short simulation.
func (s *Session) uncachedPoints(ds []Kernel, curves bool) []profileKey {
	top := 0 // the largest full occupancy; 0 without curves
	if curves {
		for i := range ds {
			top = max(top, ds[i].MaxTBsPerSM(&s.cfg))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var pts []profileKey
	for i := range ds {
		if k := (profileKey{ds[i], ds[i].MaxTBsPerSM(&s.cfg), false}); !s.cached(k) {
			pts = append(pts, k)
		}
	}
	for n := top - 1; n >= 1; n-- {
		for i := range ds {
			if n >= ds[i].MaxTBsPerSM(&s.cfg) {
				continue
			}
			if k := (profileKey{ds[i], n, false}); !s.cached(k) {
				pts = append(pts, k)
			}
		}
	}
	return pts
}

// claimProfiles is the first of two passes over the profile simulations
// a job needs: the full-occupancy isolated run of each kernel and, with
// curves, points 1..max-1 of each kernel's scalability curve (point max
// is the full-occupancy run). It simulates every point that is neither
// cached nor in flight and skips, without waiting, the ones another
// goroutine is simulating. RunIsolatedCtx and CurveCtx are the second
// pass: they wait for whatever is still in flight and find the rest
// cached. Jobs that need the same profiles therefore split the points
// between their goroutines instead of queuing behind one point at a
// time, each point still simulated once.
//
// A caller with idle cores beside it gets them: while fewer simulations
// are in flight in this process than GOMAXPROCS, the pass starts helper
// goroutines — min(points-1, GOMAXPROCS - 1 for the caller -
// simsInFlight) of them — that run the same loop under the same ctx,
// and joins them on every way out. A pool that keeps every core busy
// therefore gets none and stays the only CPU budget; so does
// GOMAXPROCS=1; a warm session returns after one lock. A point in flight
// elsewhere is a simulation in flight, so it is off the budget already.
// The count is read, not reserved: callers that decide in the same
// instant may start a few goroutines too many, which costs them a time
// slice, not a simulation. What a helper takes is a whole simulation
// (milliseconds to seconds), not a slice of a cycle (microseconds): the
// hand-off is paid once per simulation.
func (s *Session) claimProfiles(ctx context.Context, ds []Kernel, curves bool) (err error) {
	pts := s.uncachedPoints(ds, curves)
	if len(pts) == 0 {
		return nil
	}
	// stop ends the pass early for everybody once one participant fails
	// (or panics): its error is the job's, more profiles are not wanted.
	var stop atomic.Bool
	claim := func() error {
		for _, k := range pts {
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
	helpers := max(0, min(len(pts)-1, runtime.GOMAXPROCS(0)-1-int(simsInFlight.Load())))
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
			helperErrs[h] = claim()
		}()
	}
	return claim()
}

// Classify returns the measured class of kernel d: memory-intensive if
// its isolated LSU-stall fraction is at least 20% (the paper's rule).
func (s *Session) Classify(d Kernel) (kern.Class, error) {
	return s.ClassifyCtx(context.Background(), d)
}

// ClassifyCtx is Classify honouring ctx cancellation.
func (s *Session) ClassifyCtx(ctx context.Context, d Kernel) (kern.Class, error) {
	r, err := s.RunIsolatedCtx(ctx, d)
	if err != nil {
		return kern.Compute, err
	}
	if r.LSUStallFrac() >= 0.20 {
		return kern.Memory, nil
	}
	return kern.Compute, nil
}

// Partition computes the per-SM TB partition a scheme would use for the
// workload, plus the theoretical Weighted Speedup at that point (only
// meaningful for Warped-Slicer).
func (s *Session) Partition(ds []Kernel, kind PartitionKind, manual []int) ([]int, float64, error) {
	return s.PartitionCtx(context.Background(), ds, kind, manual)
}

// PartitionCtx is Partition honouring ctx cancellation.
func (s *Session) PartitionCtx(ctx context.Context, ds []Kernel, kind PartitionKind, manual []int) ([]int, float64, error) {
	descs := toPtrs(ds)
	switch kind {
	case PartitionWarpedSlicer:
		// Claim every kernel's curve at once; CurveCtx then only waits.
		if err := s.claimProfiles(ctx, ds, true); err != nil {
			return nil, 0, err
		}
		curves := make([][]float64, len(ds))
		for i := range ds {
			c, err := s.CurveCtx(ctx, ds[i])
			if err != nil {
				return nil, 0, err
			}
			curves[i] = c
		}
		return core.SweetSpot(&s.cfg, descs, curves)
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

// Checkpoint wires a persistent checkpoint store into one workload run.
// Latest is consulted once at run start (a valid checkpoint short-cuts
// the first cycles). Save receives the encoded machine state at every
// multiple of Every strictly inside the job — a checkpoint at the job's
// last cycle could never be resumed from. Save is called from a helper
// goroutine while the simulation runs on, one call at a time, and never
// after the run has returned (the run joins the helper on every way
// out), so whatever the caller does next — drop the job's checkpoints,
// retry it — cannot race a write. Both closures are pre-bound to the
// job's fingerprint by the caller (internal/runner) — the Session never
// sees keys. Checkpointing is strictly a recovery optimization: any
// Latest/Save failure degrades to a from-zero run / no further
// checkpoints, never to a run failure, and results are byte-identical
// either way.
type Checkpoint struct {
	Every  int64
	Latest func() (cycle int64, state []byte, ok bool)
	Save   func(cycle int64, state []byte) error
}

// RunWorkload simulates the kernels concurrently under scheme.
func (s *Session) RunWorkload(ds []Kernel, scheme Scheme) (*WorkloadResult, error) {
	return s.RunWorkloadCtx(context.Background(), ds, scheme)
}

// RunWorkloadCtx is RunWorkload honouring ctx: cancellation (or a
// deadline) interrupts the evaluation run and any profiling runs it
// triggers, returning an error wrapping both gpu.ErrInterrupted and the
// context's cause.
func (s *Session) RunWorkloadCtx(ctx context.Context, ds []Kernel, scheme Scheme) (*WorkloadResult, error) {
	res, _, err := s.RunWorkloadCheckpointedCtx(ctx, ds, scheme, nil)
	return res, err
}

// RunWorkloadCheckpointedCtx is RunWorkloadCtx with optional mid-job
// checkpointing: with a non-nil ck the evaluation run resumes from the
// latest valid checkpoint (resumedFrom reports the cycle, 0 for a
// from-zero run) and persists a new checkpoint every ck.Every cycles.
// Schemes whose evaluation leg re-enters the Session-side control plane
// mid-run — hook-driven controllers (DynWS, TBThrottle, L2MIL), UCP
// repartitioning, Series sampling, warmup legs — are silently
// ineligible and run normally: their out-of-engine state is not in the
// snapshot, and resuming them would diverge from an unfaulted run. So is
// every run of a traced Session, whose trace would lack the skipped
// cycles.
func (s *Session) RunWorkloadCheckpointedCtx(ctx context.Context, ds []Kernel, scheme Scheme, ck *Checkpoint) (*WorkloadResult, int64, error) {
	if len(ds) == 0 {
		return nil, 0, fmt.Errorf("gcke: empty workload")
	}
	if err := scheme.Validate(len(ds)); err != nil {
		return nil, 0, err
	}
	if scheme.Warmup >= s.cycles {
		return nil, 0, fmt.Errorf("gcke: Warmup (%d) must be shorter than the run (%d cycles)", scheme.Warmup, s.cycles)
	}
	descs := toPtrs(ds)

	// The partition first: a manual one that cannot run fails before any
	// simulation, and Warped-Slicer's claims every curve, the
	// full-occupancy runs included.
	var quota [][]int
	var row []int
	var theoWS float64
	var dynws *core.DynWS
	switch scheme.Partition {
	case PartitionSpatial:
		quota = core.SpatialQuota(&s.cfg, descs)
	case PartitionWarpedSlicerDyn:
		// Online profiling: start from the even partition; the
		// controller reassigns quotas through the hook.
		dynws = core.NewDynWS(&s.cfg, descs)
		quota = gpu.UniformQuota(s.cfg.NumSMs, core.EvenQuota(&s.cfg, descs))
	default:
		var err error
		row, theoWS, err = s.PartitionCtx(ctx, ds, scheme.Partition, scheme.ManualTBs)
		if err != nil {
			return nil, 0, err
		}
		quota = gpu.UniformQuota(s.cfg.NumSMs, row)
	}

	// Normalization base: claim what nobody has started, then collect.
	if err := s.claimProfiles(ctx, ds, false); err != nil {
		return nil, 0, err
	}
	isolated := make([]float64, len(ds))
	for i := range ds {
		r, err := s.RunIsolatedCtx(ctx, ds[i])
		if err != nil {
			return nil, 0, err
		}
		isolated[i] = r.Kernels[0].IPC
	}

	opts := &gpu.Options{
		Cycles:    s.cycles,
		Quota:     quota,
		Trace:     s.Trace,
		Series:    scheme.Series,
		PhaseTime: s.PhaseTime,
	}
	// What the managed leg, which starts after the warm-up, runs between
	// cycles, in this order: UCP cache partitioning, then the
	// controllers' hooks every 1024 cycles.
	start := max(scheme.Warmup, 0)
	var managed []gpu.Observer
	if scheme.UCP {
		every := scheme.UCPInterval
		if every <= 0 {
			every = 50 * 1024
		}
		opts.UCP = true
		managed = append(managed, gpu.Repartition(start, every))
	}
	if dynws != nil {
		managed = append(managed, gpu.Periodic(start, 1024, dynws.Hook))
	}
	if scheme.TBThrottle {
		// Validate already rejected the partitionless kinds.
		managed = append(managed, gpu.Periodic(start, 1024, core.NewTBThrottle(row).Hook))
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
		managed = append(managed, gpu.Periodic(start, 1024, shared.Hook))
	}

	// SMK warp-instruction quota.
	if scheme.SMKQuota {
		epoch := scheme.SMKEpoch
		if epoch <= 0 {
			epoch = 10 * 1024
		}
		iso := append([]float64(nil), isolated...)
		// Per-SM share of the machine-wide isolated IPC.
		for i := range iso {
			iso[i] /= float64(s.cfg.NumSMs)
		}
		opts.Policies.Gate = func(smID, n int) sm.IssueGate { return core.NewSMKGate(iso, epoch) }
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
		managed = append(managed, gpu.Periodic(start, 1024, samples.sample))
	}

	res, resumedFrom, err := s.execute(ctx, descs, opts, scheme.Warmup, managed, ck)
	if err != nil {
		return nil, resumedFrom, wrapInterrupt(ctx, err)
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
	}, resumedFrom, nil
}

// execute builds the evaluation machine and runs it, the one path of
// every evaluation simulation; it returns the cycle the run resumed from
// (0 for a from-zero run). managed is what the scheme runs between the
// cycles of its managed leg.
//
// With warmup > 0 the run has two legs on one machine: an unmanaged warm
// leg (no issue policies, UCP or bypass), then InstallPolicies and the
// managed remainder. With a checkpoint store (ck) and neither a warm-up
// nor anything managed — their state lives outside the snapshot, and
// resuming them would diverge from an unfaulted run — the machine is
// built exactly as a from-zero run's (gpu.New installs the scheme's
// policies and sizes series buckets from the full run length), adopts
// the latest valid checkpoint if one exists and runs only the remaining
// cycles, persisting fresh checkpoints along the way. Every checkpoint
// failure degrades — bad checkpoint bytes mean a from-zero run, a
// failing save turns the sink off — so the result is byte-identical to
// an uncheckpointed run in all cases.
//
// Persistence is write-behind with one save in flight: the sink only
// takes the snapshot (which owns its memory) on the simulating
// goroutine; encoding and ck.Save — hashing, writing, two fsyncs — run
// on a helper started per checkpoint. The next checkpoint and every way
// out of this function join the helper first, so a save error surfaces
// one checkpoint late and ck.Save is never running once the caller has
// the result, the interruption or the panic.
func (s *Session) execute(ctx context.Context, descs []*kern.Desc, opts *gpu.Options, warmup int64, managed []gpu.Observer, ck *Checkpoint) (*stats.RunResult, int64, error) {
	defer simulating()()
	// The warm leg's Cycles carries the full run length: gpu.New sizes
	// the series buckets from it, and the buckets must span both legs.
	build := opts
	if warmup > 0 {
		build = &gpu.Options{Cycles: opts.Cycles, Quota: opts.Quota, Trace: opts.Trace, Series: opts.Series, PhaseTime: opts.PhaseTime}
	}
	g, err := gpu.New(s.cfg, descs, build)
	if err != nil {
		return nil, 0, err
	}
	var start int64
	if ck != nil && ck.Every > 0 && warmup <= 0 && len(managed) == 0 && opts.Trace == nil {
		if cycle, state, ok := ck.Latest(); ok && cycle > 0 && cycle < s.cycles {
			if sn, derr := gpu.DecodeSnapshot(state); derr == nil && sn.Cycle() == cycle {
				if rerr := g.RestoreCheckpoint(sn); rerr == nil {
					start = cycle
				} else if g, err = gpu.New(s.cfg, descs, opts); err != nil {
					// A failed restore may have partially overwritten the
					// machine; the from-zero fallback runs on a new one.
					return nil, 0, err
				}
			}
		}
		var inFlight chan error // the helper's verdict; nil when none is running
		join := func() error {
			if inFlight == nil {
				return nil
			}
			err := <-inFlight
			inFlight = nil
			return err
		}
		defer join()
		managed = []gpu.Observer{gpu.Checkpoints(start, ck.Every, func(g *gpu.GPU) error {
			// The sink fires at the leg's last cycle too, where nobody
			// could resume from a checkpoint.
			cycle := g.Cycle()
			if cycle >= s.cycles {
				return nil
			}
			if err := join(); err != nil {
				return err
			}
			sn, err := g.SnapshotCheckpoint()
			if err != nil {
				return err
			}
			done := make(chan error, 1)
			inFlight = done
			go func() {
				// The runner contains a job's panics; one on this goroutine
				// would take the process down instead, so it becomes the
				// save's error.
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("gcke: checkpoint at cycle %d panicked: %v", cycle, r)
					}
				}()
				state, err := gpu.EncodeSnapshot(sn)
				if err == nil {
					err = ck.Save(cycle, state)
				}
				done <- err
			}()
			return nil
		})}
	}
	resumedFrom := start
	if warmup > 0 {
		leg := *build
		leg.Cycles = warmup
		leg.Observers = s.observers(ctx, 0, warmup)
		if err := g.RunCycles(&leg); err != nil {
			return nil, 0, err
		}
		g.InstallPolicies(opts)
		start = warmup
	}
	leg := *opts
	leg.Cycles = s.cycles - start
	leg.Observers = s.observers(ctx, start, s.cycles, managed...)
	if err := g.RunCycles(&leg); err != nil {
		return nil, resumedFrom, err
	}
	res := g.Result()
	g.Close()
	return res, resumedFrom, nil
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
