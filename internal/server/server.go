// Package server is the long-lived simulation service: an HTTP layer
// that accepts simulation jobs (the runner.Job shape), executes them on
// the concurrent runner pool, journals completed results, and degrades
// gracefully instead of falling over.
//
// The degradation mechanisms, in the order a request meets them:
//
//   - Bounded admission: at most Workers+QueueDepth requests are in the
//     building; excess load is shed immediately with 429 + Retry-After
//     rather than queued without bound.
//   - Deadlines: Runner.Timeout bounds the job's attempt; a
//     request-level timeout (the job's "timeout" field) bounds the whole
//     request, slot wait included, on top.
//   - One attempt: an admitted job runs exactly once. A transient
//     failure (recovered panic, deadline expiry — runner.IsTransient) is
//     answered with its status and "transient": true; re-running it is
//     the fleet coordinator's requeue, which already has the lease,
//     backoff and attempt cap. A permanent failure (an invariant
//     violation, a journal write error) is answered 500; the engine is
//     deterministic, so an invariant violation recurs on every
//     submission.
//   - Drain: once draining starts, new work is refused (503, /readyz
//     red) while in-flight jobs run to completion and the journal is
//     flushed — SIGTERM never abandons a half-simulated job.
//
// Every mechanism is exercised end-to-end by the chaos tests in this
// package, driven by the deterministic internal/chaos injector.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	gcke "repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/ckpt"
	"repro/internal/gpu"
	"repro/internal/journal"
	"repro/internal/overload"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/stats"
)

// ErrStale marks a job whose deadline became unmeetable while it waited
// in the admission queue: the dequeue-time re-check drops it before it
// burns an engine slot, and the handler sheds it like an arrival-time
// deadline rejection (429).
var ErrStale = errors.New("deadline overrun while queued")

// ErrDeadlineMiss marks a job that finished simulating after its
// deadline had already passed. The server never returns such a result as
// a success — a deadline-carrying client has, by definition, stopped
// caring, and counting it as goodput would hide overload.
var ErrDeadlineMiss = errors.New("completed past deadline")

// Config assembles the service: the settings its callers vary. The zero
// value of every field selects a sensible default (see the field
// comments); the settings no caller varies are the constants below.
type Config struct {
	// Workers is the number of concurrent simulation slots (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a slot
	// beyond the ones executing (default 2*Workers). Past
	// Workers+QueueDepth, requests are shed with 429.
	QueueDepth int
	// JobTimeout bounds the wall-clock time of a job's one attempt (0 =
	// unbounded).
	JobTimeout time.Duration
	// Journal, when non-nil, records completed jobs and replays
	// already-journaled fingerprints without re-simulating. Drain closes
	// it.
	Journal *journal.Journal
	// Cache, when non-nil, is the content-addressed result store: a job
	// whose fingerprint is cached is served before the admission queue
	// (it costs no simulation), and every newly simulated result is
	// stored. Drain closes it.
	Cache *resultcache.Store
	// Chaos, when non-nil, wires the deterministic fault injector into
	// the runner and journal (dev/test only — the -chaos flag).
	Chaos *chaos.Injector
	// Check enables the per-cycle invariant watchdog on every derived
	// session.
	Check bool
	// PhaseTrace enables the engine's per-phase wall-clock counters on
	// every derived session; /statz then reports the process-wide
	// per-phase breakdown under "phase_ns".
	PhaseTrace bool
	// Deprecated: Checkpoints is never read; every job runs from cycle
	// 0. The field survives because bench/serve.go:74 assigns it.
	Checkpoints *ckpt.Store
	// Deprecated: CheckpointEvery is never read; see Checkpoints
	// (bench/serve.go:74).
	CheckpointEvery int64
}

// retryAfterFloor is the least Retry-After a shed reports, and the whole
// hint until the first service-time sample.
const retryAfterFloor = time.Second

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	return c
}

// Server is the HTTP simulation service. Create with New, expose with
// Handler or ListenAndServe, stop with Drain.
type Server struct {
	cfg     Config
	run     *runner.Runner
	slots   chan struct{} // execution slots (capacity Workers)
	queued  atomic.Int64  // admitted requests (waiting + executing)
	mux     *http.ServeMux
	hs      atomic.Pointer[http.Server]
	drainng atomic.Bool

	// Overload control: the estimator prices deadline admission, the
	// dequeue staleness check and the Retry-After hint, and the wait ring
	// feeds /statz queue-wait percentiles.
	est   *overload.Estimator
	waits *overload.WaitRing

	accepted  atomic.Int64
	shedQueue atomic.Int64
	shedDline atomic.Int64 // deadline sheds (arrival + dequeue-stale)
	dlineLate atomic.Int64 // successes converted to 504 by the deadline guard
	completed atomic.Int64
	failed    atomic.Int64
	corrupted atomic.Int64 // chaos-corrupted responses sent (dev/test)

	// Aggregate engine-performance gauges over executed (non-replayed)
	// successful attempts: simulated cycles, wall-clock nanoseconds and
	// heap allocations. /statz derives cycles/sec and allocs/cycle.
	simCycles atomic.Int64
	simNanos  atomic.Int64
	simAllocs atomic.Int64
}

// New assembles a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	r := runner.New(cfg.Workers)
	r.Timeout = cfg.JobTimeout
	r.Journal = cfg.Journal
	r.Cache = cfg.Cache
	r.Check = cfg.Check
	r.PhaseTime = cfg.PhaseTrace
	if cfg.Chaos != nil {
		r.Fault = cfg.Chaos.JobFault
		if cfg.Journal != nil {
			cfg.Journal.FaultHook = cfg.Chaos.JournalFault
		}
		if cfg.Cache != nil {
			cfg.Cache.FaultHook = cfg.Chaos.CacheFault
		}
	}
	s := &Server{
		cfg:   cfg,
		run:   r,
		slots: make(chan struct{}, cfg.Workers),
		mux:   http.NewServeMux(),
		est:   overload.NewEstimator(),
		waits: overload.NewWaitRing(0),
	}
	s.mux.HandleFunc("/jobs", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Drain (or a listener error).
// http.ErrServerClosed — the clean-drain outcome — is returned as nil.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Drain (or a listener error).
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	s.hs.Store(hs)
	if s.drainng.Load() {
		// Drain started before hs was stored, so it shut nothing down.
		return ln.Close()
	}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Drain performs graceful shutdown: new work is refused (503, /readyz
// red) while in-flight requests run to completion, then the journal is
// closed so every completed job is durable. ctx bounds the wait; on
// expiry the remaining requests are abandoned and ctx's error returned.
func (s *Server) Drain(ctx context.Context) error {
	s.drainng.Store(true)
	if hs := s.hs.Load(); hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
	} else {
		// Handler-only deployment (tests): poll the admission count.
		for s.queued.Load() > 0 {
			if err := backoff.Sleep(ctx, 2*time.Millisecond); err != nil {
				return err
			}
		}
	}
	if s.cfg.Cache != nil {
		if err := s.cfg.Cache.Close(); err != nil {
			return err
		}
	}
	if s.cfg.Journal != nil {
		return s.cfg.Journal.Close()
	}
	return nil
}

// JobRequest is the wire shape of one simulation job. The machine is
// described by size (sms) and run lengths; kernels are Table 2 names;
// scheme uses the gcke.Scheme JSON encoding (Go field names).
type JobRequest struct {
	SMs           int         `json:"sms"`
	Cycles        int64       `json:"cycles"`
	ProfileCycles int64       `json:"profile_cycles,omitempty"`
	Kernels       []string    `json:"kernels"`
	Scheme        gcke.Scheme `json:"scheme"`
	// Config, when set, is the whole machine (a sensitivity study's L1D,
	// scheduler or MSHR change): it overrides sms and must pass
	// Config.Validate.
	Config *gcke.Config `json:"config,omitempty"`
	// Timeout, when set (Go duration string), bounds the request: the
	// wait for an execution slot and the job's one attempt — layered on
	// the server's JobTimeout, which bounds the attempt alone.
	Timeout string `json:"timeout,omitempty"`
	// Deadline, when set (Go duration string), is the client's
	// end-to-end latency budget: the server sheds the job as soon as
	// queue-wait plus estimated service time can no longer fit inside
	// it, drops it at dequeue if it went stale while queued, and never
	// returns a success past it (504 instead).
	Deadline string `json:"deadline,omitempty"`
}

// Limits are the request-level time bounds parsed out of a JobRequest.
// Timeout bounds the request's slot wait and its one attempt; Deadline
// is the admission-control budget (zero = the client did not state one).
type Limits struct {
	Timeout  time.Duration
	Deadline time.Duration
}

// Build validates the request into a runnable job plus its fingerprint
// and request-level limits. It is exported for the fleet coordinator,
// which checks that a job rebuilds from its wire form to the
// fingerprint its runner keyed it by before dispatching it.
func (req *JobRequest) Build() (runner.Job, string, Limits, error) {
	switch {
	case req.SMs < 0:
		return runner.Job{}, "", Limits{}, fmt.Errorf("sms %d: want a count >= 1 (0 = 4)", req.SMs)
	case req.Cycles <= 0:
		return runner.Job{}, "", Limits{}, fmt.Errorf("cycles must be positive")
	case req.ProfileCycles < 0:
		return runner.Job{}, "", Limits{}, fmt.Errorf("profile_cycles %d: want a count >= 0 (0 = cycles)", req.ProfileCycles)
	}
	if req.SMs == 0 {
		req.SMs = 4
	}
	if len(req.Kernels) == 0 {
		return runner.Job{}, "", Limits{}, fmt.Errorf("kernels must name at least one benchmark")
	}
	ds := make([]gcke.Kernel, len(req.Kernels))
	for i, name := range req.Kernels {
		d, err := gcke.Benchmark(name)
		if err != nil {
			return runner.Job{}, "", Limits{}, err
		}
		ds[i] = d
	}
	if err := req.Scheme.Validate(len(ds)); err != nil {
		return runner.Job{}, "", Limits{}, err
	}
	var lim Limits
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return runner.Job{}, "", Limits{}, fmt.Errorf("timeout %q: want a positive Go duration", req.Timeout)
		}
		lim.Timeout = d
	}
	if req.Deadline != "" {
		d, err := time.ParseDuration(req.Deadline)
		if err != nil || d <= 0 {
			return runner.Job{}, "", Limits{}, fmt.Errorf("deadline %q: want a positive Go duration", req.Deadline)
		}
		lim.Deadline = d
	}
	cfg := gcke.ScaledConfig(req.SMs)
	if req.Config != nil {
		if err := req.Config.Validate(); err != nil {
			return runner.Job{}, "", Limits{}, err
		}
		cfg = *req.Config
		req.SMs = cfg.NumSMs
	}
	job := runner.Job{
		Config:        cfg,
		Cycles:        req.Cycles,
		ProfileCycles: req.ProfileCycles,
		Kernels:       ds,
		Scheme:        req.Scheme,
	}
	key, err := job.Key()
	if err != nil {
		return runner.Job{}, "", Limits{}, err
	}
	return job, key, lim, nil
}

// JobResponse is the wire shape of one job outcome.
type JobResponse struct {
	Key string `json:"key"`
	// Index is always 0; it stays on the wire for clients that read it.
	Index           int     `json:"index"`
	Attempts        int     `json:"attempts"`
	Replayed        bool    `json:"replayed,omitempty"`
	Cached          bool    `json:"cached,omitempty"`
	WeightedSpeedup float64 `json:"weighted_speedup,omitempty"`
	ANTT            float64 `json:"antt,omitempty"`
	Fairness        float64 `json:"fairness,omitempty"`
	Error           string  `json:"error,omitempty"`
	Transient       bool    `json:"transient,omitempty"`
	// Result is the full result, when asked for: the bytes the runner
	// encoded once (runner.Result.Raw), never re-marshalled on the way.
	Result json.RawMessage `json:"result,omitempty"`
	// Digest is the hex sha256 of the Result bytes, present when the
	// full result is included. A coordinator verifies the result bytes it
	// received against it at every hop. It is computed by the worker over
	// whatever it is about to send — a corrupt worker's digest covers its
	// corrupt bytes (self-consistent), which is why the audit layer
	// re-executes rather than re-hashes.
	Digest string `json:"digest,omitempty"`
}

func (s *Server) response(res runner.Result, attempts int, full bool) JobResponse {
	out := JobResponse{Key: res.Key, Attempts: attempts,
		Replayed: res.Replayed, Cached: res.Cached}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.Transient = runner.IsTransient(res.Err)
		return out
	}
	out.WeightedSpeedup = res.Res.WeightedSpeedup()
	out.ANTT = res.Res.ANTT()
	out.Fairness = res.Res.Fairness()
	if full {
		out.Result = res.Raw
		// The silent-corruption seam sits BEFORE the digest so a corrupt
		// worker is self-consistent: digest and bytes agree, every
		// per-hop integrity check passes, and only an independent
		// re-execution on another worker can expose the damage. It is the
		// one place a result is encoded a second time: the lie has to be
		// built.
		if s.cfg.Chaos != nil && s.cfg.Chaos.ResultFault(res.Key) {
			if raw, err := json.Marshal(corruptResult(res.Res)); err == nil {
				out.Result = raw
				s.corrupted.Add(1)
			}
		}
		out.Digest = journal.Digest(out.Result)
	}
	return out
}

// corruptResult returns a damaged copy of r — the original stays intact
// so the worker's own journal/cache keep the true bytes; only the wire
// response lies. The flip (one bit of an instruction counter) is small
// enough to pass every sanity check and survive only byte comparison.
func corruptResult(r *gcke.WorkloadResult) *gcke.WorkloadResult {
	cp := *r
	rr := *r.RunResult
	rr.Kernels = append([]stats.KernelResult(nil), r.RunResult.Kernels...)
	if len(rr.Kernels) > 0 {
		rr.Kernels[0].Instrs ^= 1
	} else {
		rr.Cycles ^= 1
	}
	cp.RunResult = &rr
	return &cp
}

// admit claims an admission slot, shedding once Workers+QueueDepth
// requests are in the building.
func (s *Server) admit() bool {
	if s.queued.Add(1) > s.capacity() {
		s.queued.Add(-1)
		s.shedQueue.Add(1)
		return false
	}
	s.accepted.Add(1)
	return true
}

func (s *Server) release() { s.queued.Add(-1) }

// capacity is the admission bound: executing plus waiting requests.
func (s *Server) capacity() int64 { return int64(s.cfg.Workers + s.cfg.QueueDepth) }

// executeSlot runs one job's attempt on an execution slot. deadlineAt,
// when non-zero, is the job's absolute deadline — re-checked here, at
// dequeue, so work that went stale while queued is dropped (ErrStale)
// before it burns the slot it just acquired.
func (s *Server) executeSlot(ctx context.Context, job runner.Job, key string, deadlineAt time.Time) (runner.Result, int) {
	enqueued := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return runner.Result{Key: key, Err: ctx.Err()}, 0
	}
	defer func() { <-s.slots }()
	s.waits.Observe(time.Since(enqueued))
	// Yield once before the attempt. At saturation every P is inside a
	// multi-millisecond attempt and each finished attempt hands its slot
	// to the next waiter on the same P, so the runtime looks at its global
	// run queue — where sysmon parks the accept loop and new connections
	// — only every 61st scheduling round: requests then reach their
	// handler, and start their deadline clock, hundreds of milliseconds
	// after the client started its own, and successes arrive past the
	// client's deadline that the guard below never sees as late. The two
	// stop-the-world memory-statistics reads per attempt used to hide
	// this (starting the world polls the network); measured with CI's
	// overload smoke on two cores, 0 late successes with them, 331 and
	// 533 without, 0 with this yield.
	runtime.Gosched()
	if !deadlineAt.IsZero() {
		if time.Now().Add(s.est.Estimate()).After(deadlineAt) {
			s.shedDline.Add(1)
			return runner.Result{Key: key, Err: ErrStale}, 0
		}
	}
	return s.execute(ctx, job, key, deadlineAt)
}

// execute runs the job's one attempt. A failure — transient or not —
// is returned as it is: the server never re-runs a job, so the fleet
// coordinator's requeue is the one layer that does. The returned count
// is the attempts made: 0 when ctx was already done, else 1.
func (s *Server) execute(ctx context.Context, job runner.Job, key string, deadlineAt time.Time) (runner.Result, int) {
	// Gate the attempt on the context: a cancellation (SIGTERM drain,
	// request-level deadline, client gone) that landed while the job
	// waited for its slot must not buy it an execution.
	if err := ctx.Err(); err != nil {
		return runner.Result{Key: key, Err: err}, 0
	}
	start := time.Now()
	a0 := heapAllocs()
	res := s.run.Run(ctx, []runner.Job{job})[0]
	if res.Err != nil {
		s.failed.Add(1)
		return res, 1
	}
	d := time.Since(start)
	if !res.Replayed {
		// Engine-performance gauges: concurrent jobs share the process
		// heap, so allocs/cycle is an aggregate service-level signal, not
		// a per-job microbenchmark.
		s.simCycles.Add(job.Cycles)
		s.simNanos.Add(d.Nanoseconds())
		s.simAllocs.Add(int64(heapAllocs() - a0))
		// Clamp the estimator's sample to the per-attempt timeout: an
		// attempt that straggled past its timeout before succeeding can
		// never have cost the server more slot-time than the timeout, so
		// letting the raw duration through would inflate Retry-After
		// (toward its 1m cap) and deadline estimates for everyone after
		// it.
		clamped := d
		if s.cfg.JobTimeout > 0 && clamped > s.cfg.JobTimeout {
			clamped = s.cfg.JobTimeout
		}
		s.est.Observe(clamped)
	}
	if !deadlineAt.IsZero() && time.Now().After(deadlineAt) {
		// Finished, but past the deadline: the client stopped caring, so
		// this is overload debt, not goodput.
		s.dlineLate.Add(1)
		s.failed.Add(1)
		return runner.Result{Key: key, Err: ErrDeadlineMiss}, 1
	}
	s.completed.Add(1)
	return res, 1
}

// heapAllocs is the process's cumulative count of heap objects
// allocated, read through runtime/metrics because that does not stop the
// world: it runs twice per request, beside the other slot's simulation.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// queueDrain returns the service-time estimate (0 before the first
// sample) and how long the requests in the building take to clear the
// slots at it: with q of them and Workers slots each draining one job
// per estimate, about q*estimate/Workers.
func (s *Server) queueDrain() (est, wait time.Duration) {
	est = s.est.Estimate()
	return est, time.Duration(s.queued.Load() * est.Nanoseconds() / int64(s.cfg.Workers))
}

// retryAfterHint derives the Retry-After for sheds from current load:
// the queue drain time at the service-time estimate, after which a
// client meets a queue with room instead of hammering a fixed 1s hint
// into repeated 429s. retryAfterFloor is the floor (and the whole
// answer until the first sample); the hint is capped at a minute so a
// latency spike cannot park clients forever.
func (s *Server) retryAfterHint() time.Duration {
	_, wait := s.queueDrain()
	return min(max(wait, retryAfterFloor), time.Minute)
}

// shed writes a 429 with a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	secs := int(retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": reason})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// statusOf maps a failed result to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrDeadlineMiss):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable // drain or client gone
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	if s.drainng.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decoding job: " + err.Error()})
		return
	}
	job, key, limits, err := req.Build()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// fresh=1 is the audit seam: bypass the cache and journal (read AND
	// write) and re-simulate from scratch, so a coordinator can obtain a
	// result that shares no storage with the one it is auditing.
	fresh := r.URL.Query().Get("fresh") == "1"
	job.Fresh = fresh
	// Cache-aware admission: a fingerprint already in the result cache
	// costs no simulation, so it is served ahead of the admission queue —
	// repeated identical jobs cannot be shed by load.
	if !fresh {
		if res, ok := s.run.Cached(key); ok {
			s.completed.Add(1)
			writeJSON(w, http.StatusOK, s.response(res, 0, r.URL.Query().Get("full") == "1"))
			return
		}
	}
	// Deadline-aware admission: before taking a queue slot, price the
	// job — current queue turns over in about queued*estimate/Workers,
	// then the job itself runs for about one estimate. If that already
	// overruns the client's deadline, admitting it only converts a cheap
	// arrival-time 429 into an expensive post-simulation 504.
	var deadlineAt time.Time
	if limits.Deadline > 0 {
		deadlineAt = time.Now().Add(limits.Deadline)
		if est, wait := s.queueDrain(); wait+est > limits.Deadline {
			s.shedDline.Add(1)
			s.shed(w, s.retryAfterHint(), "deadline unmeetable at current load")
			return
		}
	}
	if !s.admit() {
		s.shed(w, s.retryAfterHint(), "admission queue full")
		return
	}
	defer s.release()

	ctx := r.Context()
	if limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.Timeout)
		defer cancel()
	}
	if !deadlineAt.IsZero() {
		// Running past the deadline is pure waste — cap the attempt at
		// it, so a deadline-missing attempt is cancelled instead of
		// finishing a result nobody will accept.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadlineAt)
		defer cancel()
	}
	res, attempts := s.executeSlot(ctx, job, key, deadlineAt)
	if errors.Is(res.Err, ErrStale) {
		s.shed(w, s.retryAfterHint(), "deadline overrun while queued")
		return
	}
	full := r.URL.Query().Get("full") == "1"
	resp := s.response(res, attempts, full)
	if res.Err != nil {
		writeJSON(w, statusOf(res.Err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is liveness: 200 while the process serves at all —
// chaos faults and shed load do not make it red.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: red while draining or while the admission
// queue is saturated, so a load balancer stops routing before requests
// start bouncing off 429s.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.drainng.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.queued.Load() >= s.capacity():
		http.Error(w, "saturated", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// Stats is the /statz snapshot.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	ShedQueue int64 `json:"shed_queue"`
	// Deprecated: always 0; bench/serve.go:301-302 reads it.
	ShedBreaker int64 `json:"-"`
	// ShedDeadline counts jobs shed because their deadline was already
	// unmeetable — at arrival (queue-wait + estimate > budget) or at
	// dequeue (went stale while queued).
	ShedDeadline int64 `json:"shed_deadline"`
	// Deprecated: always 0; bench/serve.go:301-302 reads it.
	ShedRetryBudget int64 `json:"-"`
	// DeadlineLate counts simulations that finished past their deadline
	// and were returned as 504 instead of success.
	DeadlineLate int64 `json:"deadline_late,omitempty"`
	// Deprecated: always 0; bench/serve.go:301-302 reads it.
	Retries   int64 `json:"-"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Queued    int64 `json:"queued"`
	// QueueWaitP50/95/99Ms are percentiles of recent queue waits
	// (admission to engine-slot acquisition) over a 1024-sample ring.
	QueueWaitP50Ms float64 `json:"queue_wait_ms_p50"`
	QueueWaitP95Ms float64 `json:"queue_wait_ms_p95"`
	QueueWaitP99Ms float64 `json:"queue_wait_ms_p99"`
	Draining       bool    `json:"draining"`
	JournalLen     int     `json:"journal_len,omitempty"`
	// Phase is the process-wide per-phase engine time breakdown,
	// present only when Config.PhaseTrace is on.
	Phase *gpu.PhaseStats `json:"phase_ns,omitempty"`
	// CyclesPerSec and AllocsPerCycle aggregate over executed
	// (non-replayed) successful jobs since the server started.
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	// Result-cache gauges (zero when no cache is configured): hit/miss
	// counters, failed persistence writes (the cache degrades to
	// pass-through), checksum-corrupt entries demoted to misses, and the
	// number of fingerprints indexed.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CachePutErrors int64 `json:"cache_put_errors,omitempty"`
	CacheCorrupt   int64 `json:"cache_corrupt,omitempty"`
	CacheLen       int   `json:"cache_len,omitempty"`
	// Corrupted counts chaos-damaged responses sent (dev/test only).
	Corrupted int64 `json:"corrupted,omitempty"`
}

// StatsSnapshot returns current counters (also served at /statz).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Accepted:     s.accepted.Load(),
		ShedQueue:    s.shedQueue.Load(),
		ShedDeadline: s.shedDline.Load(),
		DeadlineLate: s.dlineLate.Load(),
		Completed:    s.completed.Load(),
		Failed:       s.failed.Load(),
		Queued:       s.queued.Load(),
		Draining:     s.drainng.Load(),

		QueueWaitP50Ms: float64(s.waits.Percentile(0.50)) / 1e6,
		QueueWaitP95Ms: float64(s.waits.Percentile(0.95)) / 1e6,
		QueueWaitP99Ms: float64(s.waits.Percentile(0.99)) / 1e6,
	}
	if s.cfg.PhaseTrace {
		t := gpu.PhaseTotals()
		st.Phase = &t
	}
	if ns := s.simNanos.Load(); ns > 0 {
		st.CyclesPerSec = float64(s.simCycles.Load()) / (float64(ns) / 1e9)
	}
	if cyc := s.simCycles.Load(); cyc > 0 {
		st.AllocsPerCycle = float64(s.simAllocs.Load()) / float64(cyc)
	}
	if s.cfg.Journal != nil {
		st.JournalLen = s.cfg.Journal.Len()
	}
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CachePutErrors = cs.PutErrors
		st.CacheCorrupt = cs.Corrupt
		st.CacheLen = s.cfg.Cache.Len()
	}
	st.Corrupted = s.corrupted.Load()
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}
