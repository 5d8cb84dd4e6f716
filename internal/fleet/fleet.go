// Package fleet is the distributed sweep fabric: a coordinator that
// shards a sweep across ckeserve workers over the existing HTTP job
// protocol and keeps the sweep running — and its output byte-identical —
// while workers die, hang, shed load, or answer garbage.
//
// The coordinator is a runner.Executor: runner.Run fingerprints each
// job, runs a fingerprint repeated within one call once, serves its
// result store, and hands every remaining miss to Execute.
// The fault model and the mechanisms, in the order a miss meets them:
//
//   - Wire form: the job is rebuilt as a server.JobRequest (the whole
//     machine config, Table 2 kernel names, the scheme); a job whose
//     rebuilt fingerprint differs from the runner's key fails
//     permanently without a dispatch.
//   - Resume: the runner's durable store holds the coordinator's progress, so
//     a restarted sweep dispatches only the fingerprints it lacks.
//   - Leases: every dispatch runs under a lease (the job timeout plus
//     a margin). A worker that neither answers nor fails within the
//     lease forfeits the job: the dispatch is cancelled and the job is
//     requeued to another worker.
//   - Requeue with deterministic backoff: worker 5xx, connection
//     failure, shed (429) and lease expiry all requeue the job, spaced
//     by the per-fingerprint backoff policy or the worker's Retry-After,
//     whichever is longer. It is the one retry layer, bounded per job by
//     maxAttempts (a 429 spends no attempt) and in load by the
//     slotsPerWorker dispatches each worker may hold: a worker runs each
//     job once and answers a transient failure with "transient": true.
//   - Health: each worker is probed at /healthz on an interval;
//     a failing prober ejects the worker from the dispatch set,
//     a succeeding one re-admits it. Connection errors and unparseable
//     5xx responses eject immediately — the prober re-admits when the
//     worker recovers. The prober also watches /readyz: a worker that is
//     alive but draining (SIGTERM'd, finishing in-flight work) stops
//     receiving leases before its liveness goes red and rejoins when
//     ready again.
//   - Integrity: every full result carries the worker's sha256 digest
//     and the job's key, both verified on every reply (a reply missing
//     either is malformed).
//     A deterministic AuditRate sample of completed jobs is additionally
//     re-executed from scratch on a different worker and byte-compared;
//     divergence triggers a 2-of-3 vote and quarantines the lying worker
//     — sticky ejection plus requeue of its unaudited results. This is
//     the net for workers that answer promptly, self-consistently, and
//     wrong (bad RAM, sabotage): their digests cover their corrupt
//     bytes, so only independent re-execution exposes them.
//   - Hedged stragglers: a dispatch that outlives the straggler
//     threshold (hedgeFactor x the fleet's dispatch-latency estimate,
//     floored at HedgeAfter) is raced against a second dispatch on a
//     different worker. The engine is deterministic, so whichever
//     result arrives first is the result; the loser is cancelled.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gcke "repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/overload"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/xrand"
)

// Config assembles a coordinator: the settings its callers vary.
// Workers is required; every other field's zero value selects a
// sensible default. The settings no caller varies are the constants
// below.
type Config struct {
	// Workers is the base URL of each worker (e.g. http://10.0.0.1:8080).
	Workers []string
	// Transport is the HTTP transport used for every worker call (nil =
	// http.DefaultTransport). The chaos injector's Transport wrapper
	// plugs in here.
	Transport http.RoundTripper
	// JobTimeout is the per-job budget: every request carries it as its
	// timeout and every lease is JobTimeout plus leaseMargin (0 = no
	// lease deadline, only connection-level failure detection).
	JobTimeout time.Duration
	// HedgeAfter floors the straggler threshold (default 0: hedging
	// stays off until a dispatch-latency sample exists; negative
	// disables hedging entirely).
	HedgeAfter time.Duration
	// AuditRate is the fraction of completed jobs whose result is
	// re-executed from scratch (fresh=1, no result store) on a
	// DIFFERENT worker and byte-compared — the integrity net for workers
	// that answer promptly, self-consistently, and wrong. The engine is
	// deterministic, so any divergence proves a lie; a 2-of-3 vote on a
	// third worker decides which side lied, and the liar is quarantined:
	// ejected for good (probes never re-admit it) with its unaudited
	// results requeued. Which keys are audited is a pure function of the
	// fingerprint — deterministic and independent of worker assignment.
	// 0 disables auditing; 1 audits everything.
	AuditRate float64
	// Logf receives operational events (ejections, requeues, hedges);
	// nil discards them.
	Logf func(format string, args ...any)
}

// The settings no caller varies. Tests that need other values overwrite
// the Coordinator fields New seeds from them.
const (
	// leaseMargin is added to the job timeout to form the lease: the
	// slack a worker gets for queueing and transfer before the
	// coordinator declares the assignment lost.
	leaseMargin = 10 * time.Second
	// maxAttempts caps how many times one fingerprint is dispatched
	// before the coordinator gives up on it; backoff.Default() spaces
	// the requeues.
	maxAttempts = 8
	// healthInterval is the /healthz and /readyz probe period;
	// healthTimeout bounds each probe and an audit's wait for a slot.
	healthInterval = 250 * time.Millisecond
	healthTimeout  = 2 * time.Second
	// hedgeFactor scales the fleet's dispatch-latency estimate into the
	// straggler threshold.
	hedgeFactor = 4
	// slotsPerWorker bounds concurrent dispatches per worker: workers
	// shed excess themselves, this only keeps the coordinator from
	// dogpiling one node (a ckeserve -parallel 1 worker still admits 3
	// requests, so 2 pipeline without shedding).
	slotsPerWorker = 2
)

// Line is one merged-output NDJSON record. It carries only
// deterministic content — no attempt counts, no worker identity — so a
// fleet sweep under chaos byte-matches a clean single-node sweep.
type Line struct {
	Index           int     `json:"index"`
	Key             string  `json:"key"`
	WeightedSpeedup float64 `json:"weighted_speedup,omitempty"`
	ANTT            float64 `json:"antt,omitempty"`
	Fairness        float64 `json:"fairness,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// LineOf is the Line for the result of request index.
func LineOf(index int, res runner.Result) Line {
	l := Line{Index: index, Key: res.Key}
	if res.Err != nil {
		l.Error = res.Err.Error()
	} else {
		l.WeightedSpeedup, l.ANTT, l.Fairness = res.Res.WeightedSpeedup(), res.Res.ANTT(), res.Res.Fairness()
	}
	return l
}

// worker is one dispatch target.
type worker struct {
	url     string
	slots   chan struct{}
	healthy atomic.Bool
	// draining: the worker's /readyz answered 503 while /healthz is
	// still green — it is finishing in-flight work and refusing new
	// jobs. Leasing to it would bounce off 503s and burn requeues, so
	// dispatch skips it until /readyz recovers.
	draining atomic.Bool
	// quarantined: the worker was caught lying by an audit (or served
	// bytes that failed their own digest). Sticky — probes re-admit
	// crashed workers, never corrupt ones.
	quarantined atomic.Bool
}

// usable reports whether the worker may receive new leases.
func (w *worker) usable() bool {
	return w.healthy.Load() && !w.draining.Load() && !w.quarantined.Load()
}

// task is one Execute call's lifecycle state.
type task struct {
	key  string
	body []byte // marshaled JobRequest

	res     *gcke.WorkloadResult
	raw     json.RawMessage // the result bytes as the worker sent them
	src     *worker         // worker whose answer res came from
	audited bool            // res survived (or was produced by) an audit
	err     error
}

// Coordinator runs jobs on the worker fleet. Create with New, hand it
// to a runner as its Executor (or call Run), stop its health probers
// with Close, inspect with StatsSnapshot or the Handler's /statz.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	workers []*worker
	rr      atomic.Int64 // round-robin dispatch offset

	// once starts, at the first Execute, the probers, which run under
	// ctx until Close cancels it.
	once    sync.Once
	ctx     context.Context
	stop    context.CancelFunc
	probers sync.WaitGroup
	// est holds the successful-dispatch latency of every job; it sizes
	// the straggler-hedge threshold.
	est *overload.Estimator

	// Seeded from the constants; tests shorten them before the first
	// Execute.
	maxAttempts    int
	retry          backoff.Policy
	healthInterval time.Duration

	dispatched    atomic.Int64
	requeues      atomic.Int64
	shed429       atomic.Int64
	leaseExpiries atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
	ejections     atomic.Int64
	readmissions  atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64

	audits           atomic.Int64 // audit re-executions compared
	auditMismatches  atomic.Int64 // audits whose bytes diverged
	quarantines      atomic.Int64 // workers quarantined
	digestMismatches atomic.Int64 // responses failing their own digest
	drainSkips       atomic.Int64 // draining transitions observed by /readyz probes
}

// New assembles a coordinator for the given worker set.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:            cfg,
		client:         &http.Client{Transport: cfg.Transport},
		est:            overload.NewEstimator(),
		maxAttempts:    maxAttempts,
		retry:          backoff.Default(),
		healthInterval: healthInterval,
	}
	c.ctx, c.stop = context.WithCancel(context.Background())
	for _, u := range cfg.Workers {
		w := &worker{
			url:   strings.TrimRight(u, "/"),
			slots: make(chan struct{}, slotsPerWorker),
		}
		w.healthy.Store(true) // optimistic until the first probe says otherwise
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// Slots is the fleet's capacity, workers x slots per worker: the pool
// size of a runner that executes through the coordinator.
func (c *Coordinator) Slots() int { return len(c.workers) * cap(c.workers[0].slots) }

// Execute runs one job on the fleet; runner.Run calls it for every
// fingerprint its result store misses. An unaudited result whose
// worker was quarantined before Execute returned is discarded and the
// job run again (the quarantined worker no longer receives leases).
func (c *Coordinator) Execute(ctx context.Context, j *runner.Job, key string) (*gcke.WorkloadResult, json.RawMessage, error) {
	c.once.Do(c.start)
	t, err := c.newTask(j, key)
	if err != nil {
		c.failed.Add(1)
		return nil, nil, err
	}
	for {
		c.lifecycle(ctx, t)
		if t.res == nil || t.audited || !t.src.quarantined.Load() {
			break
		}
		c.requeues.Add(1)
		c.cfg.Logf("fleet: requeue %s: produced by quarantined %s before audit", key, t.src.url)
		t.res, t.raw, t.src = nil, nil, nil
	}
	if t.res == nil {
		c.failed.Add(1)
		return nil, nil, t.err
	}
	c.completed.Add(1)
	return t.res, t.raw, nil
}

// newTask rebuilds job j in its wire form and checks that the worker will
// derive the fingerprint the runner keyed it by; a job that cannot
// cross the wire unchanged (kernels that are not Table 2's, say) fails
// here, permanently, without a dispatch.
func (c *Coordinator) newTask(j *runner.Job, key string) (*task, error) {
	cfg := j.Config
	req := server.JobRequest{
		SMs: cfg.NumSMs, Config: &cfg, Cycles: j.Cycles, ProfileCycles: j.ProfileCycles,
		Scheme: j.Scheme,
	}
	for _, k := range j.Kernels {
		req.Kernels = append(req.Kernels, k.Name)
	}
	if c.cfg.JobTimeout > 0 {
		req.Timeout = c.cfg.JobTimeout.String()
	}
	_, wire, _, err := req.Build()
	if err == nil && wire != key {
		err = fmt.Errorf("it rebuilds as %s", wire)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: job %s cannot cross the wire: %w", key, err)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("fleet: job %s: %w", key, err)
	}
	return &task{key: key, body: body}, nil
}

// Run runs reqs on the fleet through one runner.Run, which runs a
// repeated fingerprint once, and writes one NDJSON Line per request, in
// submission order, to out. Leases come from Config.JobTimeout; a
// request's own timeout and deadline are not read. Run closes the
// coordinator before it returns, and returns ctx's error if cancelled; jobs
// that failed are counted in StatsSnapshot.
func (c *Coordinator) Run(ctx context.Context, reqs []server.JobRequest, out io.Writer) error {
	defer c.Close()
	jobs := make([]runner.Job, len(reqs))
	for i := range reqs {
		job, _, _, err := reqs[i].Build()
		if err != nil {
			return fmt.Errorf("fleet: job %d: %w", i, err)
		}
		jobs[i] = job
	}
	r := runner.New(0)
	r.Executor = c
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for i, res := range r.Run(ctx, jobs) {
		if err := enc.Encode(LineOf(i, res)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return ctx.Err()
}

// start starts one health prober per worker, which runs until Close.
func (c *Coordinator) start() {
	c.probers.Add(len(c.workers))
	for _, w := range c.workers {
		go func(w *worker) {
			defer c.probers.Done()
			c.probe(c.ctx, w)
		}(w)
	}
}

// Close stops the health probers and waits for them to exit. It is
// final: a closed coordinator probes no more.
func (c *Coordinator) Close() {
	c.once.Do(func() {}) // closed before any Execute: never start
	c.stop()
	c.probers.Wait()
}

// lifecycle drives one fingerprint from first dispatch to a final
// result: requeue on transient failure with deterministic backoff,
// give up at maxAttempts, finish on success or permanent error.
func (c *Coordinator) lifecycle(ctx context.Context, t *task) {
	for attempt := 1; ; {
		o := c.attempt(ctx, t)
		switch {
		case o.ok:
			t.res, t.raw, t.src = o.result, o.raw, o.src
			if c.shouldAudit(t.key) && !c.audit(ctx, t) {
				// The audit condemned the result without producing a
				// trusted replacement: drop it and re-dispatch (the
				// quarantined producer is out of the lease set).
				t.res, t.raw, t.src = nil, nil, nil
				o.ok, o.reason = false, "audit condemned the result"
				break
			}
			return
		case o.permanent:
			t.err = errors.New(o.errText)
			return
		case ctx.Err() != nil:
			t.err = fmt.Errorf("fleet: sweep cancelled: %w", ctx.Err())
			return
		}
		if o.shed {
			// Backpressure, not failure: the worker is healthy and asked
			// us to come back later. Waiting out a saturated fleet must
			// not burn the job's attempt budget.
			c.shed429.Add(1)
			c.cfg.Logf("fleet: backing off %s: %s", t.key, o.reason)
		} else {
			c.requeues.Add(1)
			c.cfg.Logf("fleet: requeue %s (attempt %d): %s", t.key, attempt, o.reason)
			if attempt >= c.maxAttempts {
				t.err = fmt.Errorf("fleet: gave up after %d attempts: %s", attempt, o.reason)
				return
			}
			attempt++
		}
		delay := c.retry.Delay(t.key, attempt)
		if o.retryAfter > delay {
			delay = o.retryAfter
		}
		if err := backoff.Sleep(ctx, delay); err != nil {
			t.err = fmt.Errorf("fleet: sweep cancelled: %w", err)
			return
		}
	}
}

// outcome classifies one dispatch (or one hedged pair of dispatches).
type outcome struct {
	ok         bool
	result     *gcke.WorkloadResult
	raw        json.RawMessage // worker-sent result bytes (audit comparand)
	src        *worker         // worker that produced result
	permanent  bool
	shed       bool // 429: backpressure, not failure — exempt from maxAttempts
	errText    string
	reason     string
	retryAfter time.Duration
}

// attempt runs one dispatch, hedging it to a second worker if it
// outlives the straggler threshold. The first success wins and cancels
// the other dispatch; a transient failure waits for the survivor.
func (c *Coordinator) attempt(ctx context.Context, t *task) outcome {
	w := c.acquire(ctx)
	if w == nil {
		return outcome{reason: "no healthy worker before cancellation"}
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		o     outcome
		hedge bool
	}
	ch := make(chan result, 2)
	go func() { ch <- result{o: c.dispatch(dctx, w, t, false)} }()
	inflight := 1

	var hedgeC <-chan time.Time
	var hedgeTimer *time.Timer
	if th := c.hedgeThreshold(); th > 0 {
		hedgeTimer = time.NewTimer(th)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	for {
		select {
		case r := <-ch:
			inflight--
			if r.o.ok && r.hedge {
				c.hedgeWins.Add(1)
			}
			if r.o.ok || r.o.permanent || inflight == 0 {
				return r.o
			}
			// Transient failure while the other dispatch still races:
			// wait for the survivor before classifying the attempt.
		case <-hedgeC:
			if w2 := c.tryAcquire(w); w2 != nil {
				hedgeC = nil
				c.hedges.Add(1)
				c.cfg.Logf("fleet: hedging straggler %s to %s", t.key, w2.url)
				go func() { ch <- result{o: c.dispatch(dctx, w2, t, false), hedge: true} }()
				inflight++
			} else {
				// No second worker free yet: the primary is still a
				// straggler, so keep trying to hedge it.
				hedgeTimer.Reset(c.healthInterval)
			}
		case <-ctx.Done():
			return outcome{reason: "cancelled: " + ctx.Err().Error()}
		}
	}
}

// hedgeThreshold is the straggler cutoff: hedgeFactor times the fleet's
// dispatch-latency estimate, floored at HedgeAfter. Zero disables
// hedging for this attempt (no sample yet and no configured floor).
func (c *Coordinator) hedgeThreshold() time.Duration {
	if c.cfg.HedgeAfter < 0 {
		return 0
	}
	return max(c.est.Estimate()*hedgeFactor, c.cfg.HedgeAfter)
}

// dispatch posts one job to one worker under a lease and classifies
// the answer. It owns (and releases) the worker slot acquired for it.
// fresh dispatches carry fresh=1: the worker bypasses its result store
// entirely — the audit path's independent re-execution.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, t *task, fresh bool) outcome {
	defer func() { <-w.slots }()
	lease := c.cfg.JobTimeout
	dctx := ctx
	if lease > 0 {
		lease += leaseMargin
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, lease)
		defer cancel()
	}
	c.dispatched.Add(1)
	start := time.Now()
	url := w.url + "/jobs?full=1"
	if fresh {
		url += "&fresh=1"
	}
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, url, bytes.NewReader(t.body))
	if err != nil {
		return outcome{permanent: true, errText: "fleet: building request: " + err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(chaos.JobKeyHeader, t.key)
	resp, err := c.client.Do(req)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			return outcome{reason: "cancelled: " + err.Error()}
		case dctx.Err() != nil:
			// The lease expired with the parent context alive: the worker
			// forfeits the assignment. The prober decides its health.
			c.leaseExpiries.Add(1)
			return outcome{reason: fmt.Sprintf("lease (%s) expired on %s", lease, w.url)}
		default:
			c.eject(w, err)
			return outcome{reason: fmt.Sprintf("dispatch to %s: %v", w.url, err)}
		}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if ctx.Err() != nil {
			return outcome{reason: "cancelled: " + err.Error()}
		}
		c.eject(w, err)
		return outcome{reason: fmt.Sprintf("reading %s response: %v", w.url, err)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// Shadow-decode to get the result's exact wire bytes: the digest
		// covers them, and the audit path byte-compares them. A worker
		// always sends the key and, with full=1, the digest: a reply
		// missing the digest or answering for another key was damaged on
		// the way and must not skip the integrity check.
		var shadow struct {
			Key    string          `json:"key"`
			Digest string          `json:"digest"`
			Result json.RawMessage `json:"result"`
		}
		bad := ""
		switch {
		case json.Unmarshal(body, &shadow) != nil || len(shadow.Result) == 0:
			bad = "an undecodable body"
		case shadow.Digest == "":
			bad = "a body without a digest"
		case shadow.Key != t.key:
			bad = "the result of " + shadow.Key
		}
		if bad != "" {
			c.eject(w, fmt.Errorf("malformed 200 body"))
			return outcome{reason: fmt.Sprintf("%s answered 200 with %s", w.url, bad)}
		}
		if resultcache.Digest(shadow.Result) != shadow.Digest {
			// The bytes do not match the digest the worker itself sent:
			// damage in transit or a worker too broken to hash its own
			// output. Either way its answers cannot be trusted.
			c.digestMismatches.Add(1)
			c.eject(w, fmt.Errorf("result digest mismatch for %s", t.key))
			return outcome{reason: fmt.Sprintf("%s result failed its own digest", w.url)}
		}
		var res gcke.WorkloadResult
		if err := json.Unmarshal(shadow.Result, &res); err != nil {
			c.eject(w, fmt.Errorf("malformed result body"))
			return outcome{reason: fmt.Sprintf("%s answered 200 with an undecodable result", w.url)}
		}
		c.est.Observe(time.Since(start))
		return outcome{ok: true, result: &res, raw: shadow.Result, src: w}
	case resp.StatusCode == http.StatusTooManyRequests:
		o := outcome{shed: true, reason: fmt.Sprintf("%s shed the job (429)", w.url)}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			o.retryAfter = time.Duration(secs) * time.Second
		}
		return o
	default:
		var jr server.JobResponse
		if json.Unmarshal(body, &jr) == nil && jr.Error != "" {
			if jr.Transient || resp.StatusCode == http.StatusServiceUnavailable {
				// Worker-side transient failure or drain: another worker
				// (or this one, later) can still finish the job.
				return outcome{reason: fmt.Sprintf("%s: %s", w.url, jr.Error)}
			}
			return outcome{permanent: true, errText: jr.Error}
		}
		// Unparseable 5xx (injected fault, middlebox garbage): the
		// worker's state is unknown — eject it and requeue; the prober
		// re-admits it when /healthz answers again.
		c.eject(w, fmt.Errorf("status %d", resp.StatusCode))
		return outcome{reason: fmt.Sprintf("%s answered %d: %.120s", w.url, resp.StatusCode, body)}
	}
}

// acquire blocks until a usable worker not in except has a free slot
// (or ctx is cancelled — then nil). Workers are scanned round-robin so
// load spreads without coordination.
func (c *Coordinator) acquire(ctx context.Context, except ...*worker) *worker {
	for {
		if w := c.tryAcquire(except...); w != nil {
			return w
		}
		if backoff.Sleep(ctx, 2*time.Millisecond) != nil {
			return nil
		}
	}
}

// tryAcquire makes one non-blocking pass over the usable workers
// (healthy, not draining, not quarantined).
func (c *Coordinator) tryAcquire(except ...*worker) *worker {
	start := int(c.rr.Add(1))
	n := len(c.workers)
scan:
	for off := 0; off < n; off++ {
		w := c.workers[(start+off)%n]
		for _, x := range except {
			if w == x {
				continue scan
			}
		}
		if !w.usable() {
			continue
		}
		select {
		case w.slots <- struct{}{}:
			return w
		default:
		}
	}
	return nil
}

// probe watches one worker's /healthz and /readyz, ejecting it from
// the dispatch set on liveness failure and re-admitting it on recovery.
// A worker that is alive but draining (/readyz 503, /healthz 200 — a
// SIGTERM'd ckeserve finishing its in-flight jobs) is taken out of the
// lease set BEFORE its liveness goes red, so the coordinator stops
// bouncing new work off its 503s; it rejoins when /readyz recovers.
func (c *Coordinator) probe(ctx context.Context, w *worker) {
	// Deterministic per-worker phase jitter: after a coordinator
	// (re)start every prober goroutine begins at the same instant, so
	// without a phase offset a large fleet's probes all land on the same
	// tick forever — a self-inflicted thundering herd against its own
	// workers' /healthz. The offset is a pure function of the worker URL,
	// so probe timing stays reproducible run to run.
	if backoff.Sleep(ctx, proberPhase(w.url, c.healthInterval)) != nil {
		return
	}
	tick := time.NewTicker(c.healthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		ok := c.get(ctx, w.url+"/healthz")
		if ctx.Err() != nil {
			return // sweep finished; a cancelled probe says nothing about the worker
		}
		if !ok {
			c.eject(w, fmt.Errorf("liveness probe failed"))
			continue
		}
		if w.healthy.CompareAndSwap(false, true) {
			c.readmissions.Add(1)
			c.cfg.Logf("fleet: re-admitted %s", w.url)
		}
		ready := c.get(ctx, w.url+"/readyz")
		if ctx.Err() != nil {
			return
		}
		if !ready {
			if w.draining.CompareAndSwap(false, true) {
				c.drainSkips.Add(1)
				c.cfg.Logf("fleet: %s draining (readyz red, healthz green): leases withheld", w.url)
			}
		} else if w.draining.CompareAndSwap(true, false) {
			c.cfg.Logf("fleet: %s ready again: leases restored", w.url)
		}
	}
}

// proberPhase is the worker's deterministic probe-phase offset in
// [0, interval): fnv64a over the URL seeds xrand, so distinct workers
// start their probe cycles spread across the interval.
func proberPhase(url string, interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(url))
	h.Write([]byte("/probe-phase"))
	return time.Duration(xrand.New(h.Sum64()).Uint64n(uint64(interval)))
}

// get performs one bounded control-plane GET, reporting a 200.
func (c *Coordinator) get(ctx context.Context, url string) bool {
	hctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return err == nil && resp.StatusCode == http.StatusOK
}

// eject removes a worker from the dispatch set until a probe succeeds.
func (c *Coordinator) eject(w *worker, cause error) {
	if w.healthy.CompareAndSwap(true, false) {
		c.ejections.Add(1)
		c.cfg.Logf("fleet: ejected %s: %v", w.url, cause)
	}
}

// quarantine permanently removes a worker caught serving wrong bytes.
// Unlike eject it is sticky: probes never clear it — a worker that lies
// once cannot be trusted just because its /healthz answers.
func (c *Coordinator) quarantine(w *worker, cause string) {
	if w.quarantined.CompareAndSwap(false, true) {
		c.quarantines.Add(1)
		c.cfg.Logf("fleet: QUARANTINED %s: %s", w.url, cause)
	}
}

// shouldAudit deterministically selects which fingerprints get their
// result re-executed and byte-compared: a pure function of the
// fingerprint, independent of worker assignment and arrival order, so
// the same sweep audits the same keys on every run.
func (c *Coordinator) shouldAudit(key string) bool {
	if c.cfg.AuditRate <= 0 {
		return false
	}
	if c.cfg.AuditRate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte("/audit"))
	return xrand.New(h.Sum64()).Float64() < c.cfg.AuditRate
}

// audit re-executes t's finished result from scratch on a different
// worker and byte-compares. The engine is deterministic, so equal bytes
// prove integrity and divergent bytes prove a lie; a third worker then
// votes 2-of-3 on which side lied, and the loser is quarantined. audit
// reports whether t still carries a trustworthy result on return: false
// means the result was condemned without a trusted replacement and the
// caller must re-dispatch. A fleet too small (or too busy) to supply an
// independent worker skips the audit — integrity checking is
// best-effort, never a liveness hazard.
func (c *Coordinator) audit(ctx context.Context, t *task) bool {
	o2 := c.auditDispatch(ctx, t, t.src)
	if o2 == nil {
		return true // no independent worker: audit skipped
	}
	c.audits.Add(1)
	if bytes.Equal(t.raw, o2.raw) {
		t.audited = true
		return true
	}
	c.auditMismatches.Add(1)
	c.cfg.Logf("fleet: AUDIT MISMATCH %s: %s and %s disagree", t.key, t.src.url, o2.src.url)
	// Tie-break on a third worker, independent of both.
	o3 := c.auditDispatch(ctx, t, t.src, o2.src)
	switch {
	case o3 != nil && bytes.Equal(o3.raw, o2.raw):
		// Origin outvoted 2-1: it lied. Adopt the majority bytes.
		c.quarantine(t.src, fmt.Sprintf("outvoted 2-1 on %s by %s and %s", t.key, o2.src.url, o3.src.url))
		t.res, t.raw, t.src = o2.result, o2.raw, o2.src
		t.audited = true
		return true
	case o3 != nil && bytes.Equal(o3.raw, t.raw):
		// Auditor outvoted 2-1: the re-execution lied.
		c.quarantine(o2.src, fmt.Sprintf("outvoted 2-1 on %s by %s and %s", t.key, t.src.url, o3.src.url))
		t.audited = true
		return true
	default:
		// No tiebreaker reachable (a two-worker fleet) or a three-way
		// split: neither byte-string has a majority and blame cannot be
		// attributed — the liar may just as well be the auditor as the
		// origin, and quarantining on a coin flip ejects honest workers
		// (and can quarantine the whole fleet into a deadlock). Trust
		// neither answer: discard the bytes and make the caller
		// re-dispatch; the attempt budget bounds a pathological fleet
		// where no decidable audit ever forms.
		c.cfg.Logf("fleet: AUDIT UNDECIDED %s: no deciding vote; discarding and re-dispatching", t.key)
		return false
	}
}

// auditDispatch runs one fresh re-execution of t on a worker not in
// except, bounded by healthTimeout for slot acquisition (an audit must
// not stall the sweep when the fleet is saturated). nil = no slot or
// the re-execution failed; the audit is skipped, not retried — the
// deterministic sampler will audit this worker again on other keys.
func (c *Coordinator) auditDispatch(ctx context.Context, t *task, except ...*worker) *outcome {
	actx, cancel := context.WithTimeout(ctx, healthTimeout)
	w := c.acquire(actx, except...)
	cancel()
	if w == nil {
		return nil
	}
	o := c.dispatch(ctx, w, t, true)
	if !o.ok || o.raw == nil {
		return nil
	}
	return &o
}

// WorkerStatus is one worker's view in the fleet stats.
type WorkerStatus struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	Busy        int    `json:"busy"`
	Draining    bool   `json:"draining,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// Stats is the coordinator's /statz snapshot.
type Stats struct {
	Workers       []WorkerStatus `json:"workers"`
	Dispatched    int64          `json:"dispatched"`
	Requeues      int64          `json:"requeues"`
	Shed429       int64          `json:"shed_429"`
	LeaseExpiries int64          `json:"lease_expiries"`
	Hedges        int64          `json:"hedges"`
	HedgeWins     int64          `json:"hedge_wins"`
	Ejections     int64          `json:"ejections"`
	Readmissions  int64          `json:"readmissions"`
	Completed     int64          `json:"completed"`
	Failed        int64          `json:"failed"`
	// Integrity-layer counters: audit re-executions compared, audits
	// whose bytes diverged, workers quarantined, responses that failed
	// their own digest, and draining transitions observed by the /readyz
	// probes.
	Audits           int64 `json:"audits"`
	AuditMismatches  int64 `json:"audit_mismatches"`
	Quarantined      int64 `json:"quarantined"`
	DigestMismatches int64 `json:"digest_mismatches"`
	DrainSkips       int64 `json:"drain_skips"`
}

// StatsSnapshot returns current fleet counters.
func (c *Coordinator) StatsSnapshot() Stats {
	st := Stats{
		Dispatched:    c.dispatched.Load(),
		Requeues:      c.requeues.Load(),
		Shed429:       c.shed429.Load(),
		LeaseExpiries: c.leaseExpiries.Load(),
		Hedges:        c.hedges.Load(),
		HedgeWins:     c.hedgeWins.Load(),
		Ejections:     c.ejections.Load(),
		Readmissions:  c.readmissions.Load(),
		Completed:     c.completed.Load(),
		Failed:        c.failed.Load(),

		Audits:           c.audits.Load(),
		AuditMismatches:  c.auditMismatches.Load(),
		Quarantined:      c.quarantines.Load(),
		DigestMismatches: c.digestMismatches.Load(),
		DrainSkips:       c.drainSkips.Load(),
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			URL: w.url, Healthy: w.healthy.Load(), Busy: len(w.slots),
			Draining: w.draining.Load(), Quarantined: w.quarantined.Load(),
		})
	}
	return st
}

// Handler exposes the coordinator's own control plane: /statz (fleet
// counters + per-worker health) and /healthz.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.StatsSnapshot())
	})
	return mux
}
