// Package runner is the concurrent experiment-execution layer: it fans
// a grid of independent (workload x scheme x config) simulation jobs out
// over a bounded worker pool and delivers the results in submission
// order, so table and figure renderers produce byte-identical output to
// a serial loop while the points simulate in parallel.
//
// The engine underneath is deterministic (seeded PRNGs, no wall-clock),
// and the Session profile caches deduplicate concurrent profiling
// demand, so running through the pool never changes any result — it only
// changes how many points are in flight at once.
//
// The pool is also the robustness boundary for sweeps: cancellation and
// per-job deadlines thread through a context, a panicking job is
// recovered into that one job's error instead of killing the process,
// and an attached durable result store records each completed point so
// an interrupted sweep resumes without recomputing.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	gcke "repro"
	"repro/internal/resultcache"
)

// Job is one simulation point: a workload run under a scheme on a
// machine named by value. The Runner makes the machine's Session
// (Runner.Session) and shares it, and so its profile caches, between
// all jobs with the same Config, Cycles and ProfileCycles.
type Job struct {
	// Config, Cycles and ProfileCycles describe the machine.
	// ProfileCycles of 0 means Cycles.
	Config        gcke.Config
	Cycles        int64
	ProfileCycles int64

	Kernels []gcke.Kernel
	Scheme  gcke.Scheme

	// Fresh forces a real simulation: the result store is neither
	// consulted nor written for this job. Audit re-execution
	// (internal/fleet) uses it so a re-run actually re-simulates instead
	// of echoing the possibly-corrupt stored bytes back. Deliberately
	// NOT part of the fingerprint — a fresh run of a job has the same
	// key and must produce the same bytes.
	Fresh bool
}

// Key returns the job's deterministic fingerprint: a hash over the full
// machine description (config, run lengths), the kernel descriptors and
// the scheme. Two jobs that would produce the same simulation result
// have the same key, across process restarts — it is the result
// store's index.
func (j *Job) Key() (string, error) {
	fp := struct {
		Config        gcke.Config
		Cycles        int64
		ProfileCycles int64
		Kernels       []gcke.Kernel
		Scheme        gcke.Scheme
		// Samples marks a Series job: its result carries the in-flight
		// and limit samples, which a result stored before they existed
		// lacks, so such a result is never served for it.
		Samples bool `json:",omitempty"`
	}{j.Config, j.Cycles, j.ProfileCycles, j.Kernels, j.Scheme, j.Scheme.Series}
	if fp.ProfileCycles <= 0 {
		fp.ProfileCycles = fp.Cycles
	}
	raw, err := json.Marshal(fp)
	if err != nil {
		return "", fmt.Errorf("runner: fingerprinting job: %w", err)
	}
	sum := sha256.Sum256(raw)
	return "j1-" + hex.EncodeToString(sum[:]), nil
}

// Result pairs a job's outcome with any simulation error.
type Result struct {
	// Key is the job's deterministic fingerprint (set even on failure,
	// empty only if fingerprinting itself failed).
	Key string
	Res *gcke.WorkloadResult
	// Raw is Res as JSON: marshalled once when the job simulated, the
	// stored bytes unchanged when it was served from the store. The store
	// and the wire both carry these bytes; read, never modify.
	Raw json.RawMessage
	Err error
	// Deprecated: Replayed is never set; a result read back from a
	// durable store is Cached. bench/sweep.go reads it.
	Replayed bool
	// Cached reports that Res was served from the result store rather
	// than simulated.
	Cached bool
}

// PanicError is a worker panic recovered into one job's error: the rest
// of the grid keeps running, and the failed point stays attributed.
type PanicError struct {
	Index int    // submission index of the job (or Map index)
	Key   string // job fingerprint, when known
	Value any    // the recovered panic value
	Stack []byte // goroutine stack captured at recovery
}

func (e *PanicError) Error() string {
	id := fmt.Sprintf("job %d", e.Index)
	if e.Key != "" {
		id += " (" + e.Key + ")"
	}
	return fmt.Sprintf("runner: %s panicked: %v\n%s", id, e.Value, e.Stack)
}

// Runner executes jobs on a bounded worker pool.
type Runner struct {
	workers int

	// Timeout, when positive, bounds each job's wall-clock time; an
	// expired job fails with an error wrapping context.DeadlineExceeded
	// while the rest of the grid continues.
	Timeout time.Duration
	// Deprecated: Journal is never read; a durable Cache is the journal.
	// bench/sweep.go assigns it a *journal.Journal.
	Journal any
	// Fault, when non-nil, runs inside the worker's recovery scope
	// before each simulated (not stored) job — the fault-injection seam
	// (internal/chaos). A returned error fails the job; a panic is
	// recovered like any worker panic; ctx carries the job's deadline.
	Fault func(ctx context.Context, index int, key string) error
	// Cache, when non-nil, is the result store: a job whose fingerprint
	// it holds is served without simulating, and every newly simulated
	// result is stored. With a durable store that is the sweep's resume
	// contract: a failed append fails the job with the store's
	// *resultcache.WriteError. Failures are never stored, so a fixed
	// build re-runs them on resume.
	Cache *resultcache.Store
	// Check enables the per-cycle invariant watchdog on the runner's
	// sessions. Set it before the first Run or Session call.
	Check bool
	// PhaseTime enables per-phase engine wall-clock counters on the
	// runner's sessions (gcke.Session.PhaseTime); totals are process-wide
	// via gpu.PhaseTotals. Set it before the first Run or Session call.
	PhaseTime bool
	// Executor, when non-nil, runs every job the store does not serve,
	// in place of the local simulation, and the pool then has
	// Executor.Slots() workers. Timeout and Fault bound and instrument
	// local simulation only; an executor owns its deadlines.
	Executor Executor

	mu       sync.Mutex
	sessions map[string]*gcke.Session // one per machine description
}

// Executor runs jobs somewhere other than this process (internal/fleet's
// Coordinator runs them on remote workers). Execute returns job j's
// result, whose fingerprint is key, decoded and as the bytes the store
// and the caller receive unchanged.
type Executor interface {
	Execute(ctx context.Context, j *Job, key string) (*gcke.WorkloadResult, json.RawMessage, error)
	// Slots is how many jobs the executor runs at once.
	Slots() int
}

// New creates a runner with the given worker count; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, sessions: make(map[string]*gcke.Session)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Session returns the runner's shared session for a machine description,
// creating it on first use; it is the one place a job's session is
// made. Jobs with equal (Config, Cycles, ProfileCycles) share one
// session and therefore one profile cache.
func (r *Runner) Session(cfg gcke.Config, cycles, profileCycles int64) (*gcke.Session, error) {
	if profileCycles <= 0 {
		profileCycles = cycles
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("runner: encoding config: %w", err)
	}
	key := fmt.Sprintf("c%d|p%d|%s", cycles, profileCycles, raw)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[key]
	if !ok {
		s = gcke.NewSession(cfg, cycles)
		s.ProfileCycles = profileCycles
		s.Check = r.Check
		s.PhaseTime = r.PhaseTime
		r.sessions[key] = s
	}
	return s, nil
}

// testJobHook, when set (by tests only), runs at the start of every job
// inside the worker's recovery scope — the injection seam for panic-
// isolation tests, since real jobs are pure data with no panic path.
var testJobHook func(i int, j *Job)

// Run executes all jobs on the pool and returns one Result per job, in
// submission order. Every job runs to completion even if earlier jobs
// fail — a panic or an invariant violation in one point surfaces as that
// point's error; callers decide whether a single error aborts their
// experiment. Jobs with equal fingerprints are simulated once, at the
// first such index — the one a panic or fault is attributed to — and
// every duplicate slot gets that result. Cancelling
// ctx stops feeding the pool, interrupts jobs in flight, and marks
// never-started jobs with the context's error.
func (r *Runner) Run(ctx context.Context, jobs []Job) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	first := make([]int, len(jobs)) // slot -> index of the job that fills it
	run := make([]int, 0, len(jobs))
	var seen map[string]int
	if len(jobs) > 1 {
		seen = make(map[string]int, len(jobs))
	}
	for i := range jobs {
		first[i] = i
		key, err := jobs[i].Key()
		results[i].Key, results[i].Err = key, err
		if err != nil {
			continue
		}
		if seen != nil {
			if f, ok := seen[key]; ok {
				first[i] = f
				continue
			}
			seen[key] = i
		}
		run = append(run, i)
	}
	workers := r.workers
	if r.Executor != nil {
		workers = r.Executor.Slots()
	}
	Map(ctx, workers, len(run), func(n int) {
		i := run[n]
		r.runJob(ctx, i, &jobs[i], &results[i])
	})
	for i, f := range first {
		if f != i {
			results[i] = results[f]
		}
	}
	// Jobs the cancelled feeder never dispatched: attribute the
	// cancellation rather than returning an inexplicable zero Result.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Res == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	return results
}

// runJob serves job i from the store, or else simulates it (or hands it
// to the executor) and stores the result; Run has already stored its
// fingerprint in out.Key.
func (r *Runner) runJob(ctx context.Context, i int, j *Job, out *Result) {
	key := out.Key
	if !j.Fresh {
		if hit, ok := r.Cached(key); ok {
			*out = hit
			return
		}
	}
	defer func() {
		if v := recover(); v != nil {
			out.Res, out.Raw = nil, nil
			out.Err = &PanicError{Index: i, Key: key, Value: v, Stack: debug.Stack()}
		}
	}()
	var res *gcke.WorkloadResult
	var raw json.RawMessage
	var err error
	if r.Executor != nil {
		res, raw, err = r.Executor.Execute(ctx, j, key)
	} else {
		res, raw, err = r.simulate(ctx, i, j, key)
	}
	if err == nil && r.Cache != nil && !j.Fresh {
		if serr := r.Cache.Put(key, raw); serr != nil {
			err = fmt.Errorf("runner: storing %s: %w", key, serr)
		}
	}
	out.Res, out.Raw, out.Err = res, raw, err
}

// simulate runs job i, whose fingerprint is key, in this process under
// the per-job timeout and the fault seam.
func (r *Runner) simulate(ctx context.Context, i int, j *Job, key string) (*gcke.WorkloadResult, json.RawMessage, error) {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	if testJobHook != nil {
		testJobHook(i, j)
	}
	if r.Fault != nil {
		if err := r.Fault(ctx, i, key); err != nil {
			return nil, nil, err
		}
	}
	s, err := r.Session(j.Config, j.Cycles, j.ProfileCycles)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.RunWorkloadCtx(ctx, j.Kernels, j.Scheme)
	if err != nil {
		return res, nil, err
	}
	// The one encoding of a fresh result: the store and the server's
	// reply both take these bytes.
	raw, err := json.Marshal(res)
	if err != nil {
		return res, nil, fmt.Errorf("runner: encoding result of %s: %w", key, err)
	}
	return res, raw, nil
}

// Cached is the one result-store lookup: the served bytes and their
// decoded form, for the pool and for callers that answer a stored
// fingerprint without queueing for it (the server's admission path).
func (r *Runner) Cached(key string) (Result, bool) {
	if r.Cache == nil {
		return Result{}, false
	}
	raw, ok := r.Cache.Get(key)
	if !ok {
		return Result{}, false
	}
	// A checksummed entry that fails to decode means the result schema
	// moved; report a miss so the job re-simulates.
	res := new(gcke.WorkloadResult)
	if err := json.Unmarshal(raw, res); err != nil {
		return Result{}, false
	}
	return Result{Key: key, Res: res, Raw: raw, Cached: true}, true
}

// FirstErr returns the first error in results by submission order, so
// error reporting is deterministic regardless of execution order.
func FirstErr(results []Result) error {
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// Errs returns every failed result by submission order (for skip-mode
// drivers that report all failures instead of aborting on the first).
func Errs(results []Result) []error {
	var out []error
	for _, res := range results {
		if res.Err != nil {
			out = append(out, res.Err)
		}
	}
	return out
}

// Map runs fn(0..n-1) on at most workers goroutines and waits for all
// started work. It is the ordered fan-out primitive underneath Run,
// exposed for call sites whose unit of work is not a full workload
// simulation (e.g. per-benchmark characterization). fn must write its
// output to slot i of a caller-owned slice rather than share state
// across indices. When ctx is cancelled, no further indices are
// dispatched (in-flight fn calls run to completion); fn itself observes
// cancellation through whatever it passed the ctx into. Map does not
// recover fn panics — use MapErr for isolation.
func Map(ctx context.Context, workers, n int, fn func(i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// MapErr is Map for fallible work: it collects one error per index and
// returns the first failure in index order (nil if none failed). A
// panicking fn call fails only its own index (as a *PanicError); indices
// never dispatched because ctx was cancelled fail with the context's
// error.
func MapErr(ctx context.Context, workers, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	ran := make([]bool, n)
	Map(ctx, workers, n, func(i int) {
		ran[i] = true
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
			}
		}()
		errs[i] = fn(i)
	})
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !ran[i] && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
