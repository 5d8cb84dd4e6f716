package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	gcke "repro"
	"repro/internal/ckpt"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/xrand"
)

// serve-mixed drives an in-process server.New on a loopback listener
// with a journal, a disk result cache and a checkpoint store. The load
// is a closed loop of two clients: the real caller, the fleet
// coordinator, holds one lease per slot and waits for each reply. In
// every block of four requests a client sends one fingerprint the
// server has never seen (simulate, Put, Append) and three it has
// already answered (cache hit).

const (
	serveClients = 2
	serveBlock   = 4  // requests per block, one of them first-seen
	serveStretch = 32 // first-seen requests per throughput sample
	// StaticLimits are drawn from [lo, lo+span) per kernel: span squared
	// distinct fingerprints. No kernel has a thousand accesses in flight,
	// so the caps never bind and every first-seen job is the same
	// simulation under another name; with binding caps the cost of a job
	// follows the draw and moves the throughput by 4% between seeds.
	serveLimitLo   = 1000
	serveLimitSpan = 64
)

var serveKernels = []string{"bp", "ks"}

type serveEnv struct {
	srv    *server.Server
	url    string
	served chan error
	client *http.Client
}

func (c *runCtx) startServer(dir string, warm server.JobRequest) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := journal.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.Open(resultcache.Options{Path: filepath.Join(dir, "cache.jsonl")})
	if err != nil {
		return nil, err
	}
	store, err := ckpt.OpenStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Journal: j, Cache: cache, Checkpoints: store, CheckpointEvery: c.sz.serveCycles / 2,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { e.served <- srv.Serve(ln) }()
	// One request before the clock starts: it pays for the isolated
	// profiles and scalability curves every later job of this machine
	// shares, as the first job after a ckeserve restart does.
	body, err := json.Marshal(warm)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.post(body); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return e, nil
}

func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := e.srv.Drain(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	return err
}

// reply is the part of server.JobResponse the client checks.
type reply struct {
	Cached   bool            `json:"cached"`
	Replayed bool            `json:"replayed"`
	Digest   string          `json:"digest"`
	Result   json.RawMessage `json:"result"`
}

// post sends one job and returns the reply and the latency the caller
// saw. Anything but a 200 with a decodable body is an error.
func (e *serveEnv) post(body []byte) (*reply, time.Duration, error) {
	t0 := time.Now()
	resp, err := e.client.Post(e.url+"/jobs?full=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, 0, err
	}
	return &r, d, nil
}

// serveClient is one closed-loop caller with its own fingerprints, so
// that a repeat never races the first-seen request it repeats.
type serveClient struct {
	rng    *xrand.Source
	fresh  []server.JobRequest // not yet sent
	bodies [][]byte            // answered: request body ...
	sums   []string            // ... and the digest of the result it got

	missMs, hitMs   []float64
	missDone        []time.Duration // completion time of each first-seen request, since the start
	instrs          float64
	failed          int
	firstFailure    error
	badDigest       int
	badCachedFlag   int
	hitDiffersMiss  int
	lastDone        time.Time
	requestsInPhase [2]int // completed before / after tracing began
}

func runServe(c *runCtx) error {
	// Every pair of limits is a distinct fingerprint; --seed
	// decides which of them this run uses, in which order, and where in
	// each block the first-seen request sits.
	rng := xrand.New(c.Seed)
	var limits [][2]int
	for a := 0; a < serveLimitSpan; a++ {
		for b := 0; b < serveLimitSpan; b++ {
			limits = append(limits, [2]int{serveLimitLo + a, serveLimitLo + b})
		}
	}
	shuffle(rng, limits)
	request := func(l [2]int) server.JobRequest {
		return server.JobRequest{
			SMs: 2, Cycles: c.sz.serveCycles, ProfileCycles: c.sz.serveProfile, Kernels: serveKernels,
			Scheme: gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitStatic, StaticLimits: l[:]},
		}
	}
	warm := request(limits[0])
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{rng: rng.Fork(uint64(i))}
		for k := 1 + i; k < len(limits); k += serveClients {
			clients[i].fresh = append(clients[i].fresh, request(limits[k]))
		}
	}
	c.inputs = map[string]any{
		"machine": "gcke.ScaledConfig(2), Config.Seed fixed by the server", "kernels": serveKernels,
		"cycles": c.sz.serveCycles, "profile_cycles": c.sz.serveProfile,
		"scheme": "WS-SMIL, StaticLimits drawn from --seed", "clients": serveClients,
		"first_seen_share": 1.0 / serveBlock, "first_limits": limits[:5],
	}

	n := 0
	var env *serveEnv
	if err := c.timeSetup(
		func() (err error) {
			n++
			env, err = c.startServer(filepath.Join(c.dir, fmt.Sprintf("serve-%d", n)), warm)
			return
		},
		func() error { return env.stop() },
	); err != nil {
		return err
	}

	// The traced run spends the first half of its time untraced, so the
	// cost of the spans is measured inside one process.
	start := time.Now()
	deadline := start.Add(time.Duration(c.Seconds) * time.Second)
	traceFrom := deadline
	if c.Trace {
		traceFrom = start.Add(time.Duration(c.Seconds) * time.Second / 2)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.loop(c, env, start, traceFrom, deadline)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	end := start
	var missMs, hitMs []float64
	var instrs float64
	var badDigest, badFlag, hitDiffers int
	var phase [2]int
	for _, cl := range clients {
		if cl.lastDone.After(end) {
			end = cl.lastDone
		}
		missMs, hitMs = append(missMs, cl.missMs...), append(hitMs, cl.hitMs...)
		instrs += cl.instrs
		c.failed += cl.failed
		if cl.firstFailure != nil {
			c.note("first failed request: %v", cl.firstFailure)
		}
		badDigest, badFlag, hitDiffers = badDigest+cl.badDigest, badFlag+cl.badCachedFlag, hitDiffers+cl.hitDiffersMiss
		phase[0], phase[1] = phase[0]+cl.requestsInPhase[0], phase[1]+cl.requestsInPhase[1]
	}
	elapsed := end.Sub(start).Seconds()
	c.attempted = len(missMs) + len(hitMs) + c.failed
	c.check("digest-verifies-over-received-bytes", badDigest == 0, "%d replies carry a digest that does not match their result bytes", badDigest)
	c.check("cached-exactly-on-repeats", badFlag == 0, "%d replies have the wrong cached flag", badFlag)
	c.check("hit-bytes-equal-miss-bytes", hitDiffers == 0, "%d cache hits differ from the result first returned", hitDiffers)
	if len(missMs) == 0 || len(hitMs) == 0 {
		return fmt.Errorf("the run completed %d first-seen and %d repeated requests; both are needed", len(missMs), len(hitMs))
	}
	// sim_digest: what was simulated is a function of the seed alone
	// only per fingerprint, not per run (how many requests complete
	// depends on host speed), so it covers the first block's results.
	c.simDigest = clients[0].sums[0]

	// Throughput is the median over stretches of serveStretch first-seen
	// requests each, which a slow second on a shared host does not move;
	// the mean over the whole run it does.
	var done []time.Duration
	for _, cl := range clients {
		done = append(done, cl.missDone...)
	}
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	var kcycles []float64
	for i := serveStretch; i < len(done); i += serveStretch {
		kcycles = append(kcycles, serveStretch*float64(c.sz.serveCycles)/1000/(done[i]-done[i-serveStretch]).Seconds())
	}
	if len(kcycles) == 0 {
		kcycles = []float64{float64(len(missMs)) * float64(c.sz.serveCycles) / 1000 / elapsed}
	}
	instrPerCycle := instrs / (float64(len(missMs)) * float64(c.sz.serveCycles))
	kinstr := make([]float64, len(kcycles))
	for i, k := range kcycles {
		kinstr[i] = k * instrPerCycle
	}
	c.rec.samples("sim_kcycles_per_s", kcycles)
	c.rec.samples("sim_kinstr_per_s", kinstr)
	c.rec.set("serve_jobs_per_s", float64(len(missMs)+len(hitMs))/elapsed)
	p95 := topPercentile(len(missMs), 0.95)
	c.rec.samples("serve_miss_p50_ms", missMs)
	c.rec.put("serve_miss_p95_ms", metric{Value: percentile(missMs, p95), N: len(missMs)})
	c.rec.samples("serve_hit_p50_ms", hitMs)
	c.note("serve_miss_p95_ms is percentile %.3f of %d first-seen requests", p95, len(missMs))
	if !c.Trace {
		return env.stop()
	}

	half := float64(c.Seconds) / 2
	c.rec.set("trace_overhead_frac", (float64(phase[0])/half)/math.Max(1, float64(phase[1])/(elapsed-half))-1)
	c.rec.put("server.hit_p99_ms", metric{Value: percentile(hitMs, topPercentile(len(hitMs), 0.99)), N: len(hitMs)})
	st := env.srv.StatsSnapshot()
	c.rec.set("server.queue_wait_ms_p50", st.QueueWaitP50Ms)
	c.rec.exact("server.shed", float64(st.ShedQueue+st.ShedBreaker+st.ShedDeadline+st.ShedRetryBudget))
	c.rec.exact("server.retries", float64(st.Retries))
	c.rec.set("resultcache.hit_ratio", float64(st.CacheHits)/math.Max(1, float64(st.CacheHits+st.CacheMisses)))
	if err := c.driveFleet(env, clients[0].bodies); err != nil {
		return err
	}
	if err := env.stop(); err != nil {
		return err
	}

	var sample []byte
	runAlone, err := c.driveServeJob(clients[0].bodies, &sample)
	if err != nil {
		return err
	}
	c.rec.set("server.miss_overhead_ms", median(missMs)-runAlone)
	getHitUs, err := c.driveStores(sample)
	if err != nil {
		return err
	}
	c.rec.set("server.hit_overhead_us", median(hitMs)*1000-getHitUs)
	return c.driveCheckpoint(clients[0].bodies[0])
}

// loop sends requests until the deadline.
func (cl *serveClient) loop(c *runCtx, env *serveEnv, start, traceFrom, deadline time.Time) error {
	for block := 0; ; block++ {
		missAt := cl.rng.Intn(serveBlock)
		for i := 0; i < serveBlock; i++ {
			now := time.Now()
			if !now.Before(deadline) {
				return nil
			}
			traced := !now.Before(traceFrom)
			first := i == missAt || len(cl.bodies) == 0
			if first && i != missAt {
				missAt = i // the very first request has nothing to repeat
			}
			var body []byte
			var repeat int
			if first {
				if len(cl.fresh) == 0 {
					return fmt.Errorf("ran out of unseen fingerprints after %d; raise serveLimitSpan", len(cl.bodies))
				}
				var err error
				if body, err = json.Marshal(cl.fresh[0]); err != nil {
					return err
				}
				cl.fresh = cl.fresh[1:]
			} else {
				repeat = cl.rng.Intn(len(cl.bodies))
				body = cl.bodies[repeat]
			}
			id := -1
			switch {
			case traced && first:
				id = c.tr.start("server.POST /jobs miss", -1)
			case traced:
				id = c.tr.start("server.POST /jobs hit", -1)
			}
			r, d, err := env.post(body)
			c.tr.end(id)
			cl.lastDone = time.Now()
			if err != nil {
				// A refused or failed request misses every latency figure.
				cl.failed++
				if cl.firstFailure == nil {
					cl.firstFailure = err
				}
				continue
			}
			if traced {
				cl.requestsInPhase[1]++
			} else {
				cl.requestsInPhase[0]++
			}
			if journal.Digest(r.Result) != r.Digest {
				cl.badDigest++
			}
			if r.Cached == first || r.Replayed {
				cl.badCachedFlag++
			}
			if first {
				var res struct{ Kernels []struct{ Instrs uint64 } }
				if err := json.Unmarshal(r.Result, &res); err != nil {
					return err
				}
				for _, k := range res.Kernels {
					cl.instrs += float64(k.Instrs)
				}
				cl.bodies, cl.sums = append(cl.bodies, body), append(cl.sums, r.Digest)
				cl.missMs = append(cl.missMs, millis(d))
				cl.missDone = append(cl.missDone, cl.lastDone.Sub(start))
			} else {
				if r.Digest != cl.sums[repeat] {
					cl.hitDiffersMiss++
				}
				cl.hitMs = append(cl.hitMs, millis(d))
			}
		}
	}
}

// driveFleet sends fingerprints the worker has already cached through a
// one-worker Coordinator: what the fleet adds per job on top of a cache
// hit. A real fleet sweep stays out of the benchmark until the
// reference host has at least four cores (see README.md).
func (c *runCtx) driveFleet(env *serveEnv, bodies [][]byte) error {
	if len(bodies) > 100 {
		bodies = bodies[:100]
	}
	reqs := make([]server.JobRequest, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &reqs[i]); err != nil {
			return err
		}
	}
	co, err := fleet.New(fleet.Config{Workers: []string{env.url}})
	if err != nil {
		return err
	}
	id := c.tr.start("fleet.Coordinator.Run", -1)
	err = co.Run(context.Background(), reqs, io.Discard)
	d := c.tr.end(id)
	if err != nil {
		return err
	}
	fs := co.StatsSnapshot()
	if fs.Failed > 0 {
		return fmt.Errorf("fleet: %d of %d jobs failed", fs.Failed, len(reqs))
	}
	c.rec.set("fleet.overhead_ms_per_job", millis(d)/float64(len(reqs)))
	c.rec.exact("fleet.requeues", float64(fs.Requeues))
	return nil
}

// driveServeJob runs a few of the served jobs through a bare Session
// with the serial engine the server gives each job, and returns the
// median ms of one. *sample receives one marshalled result.
func (c *runCtx) driveServeJob(bodies [][]byte, sample *[]byte) (float64, error) {
	if len(bodies) > 8 {
		bodies = bodies[:8]
	}
	var sess *gcke.Session
	var xs []float64
	for i, b := range bodies {
		var req server.JobRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, err
		}
		job, _, _, err := req.Build()
		if err != nil {
			return 0, err
		}
		if sess == nil {
			sess = gcke.NewSession(job.Config, job.Cycles)
			sess.ProfileCycles = job.ProfileCycles
			sess.Workers, sess.PartWorkers = 1, 1
		}
		id := c.tr.start("session.RunWorkload", -1)
		t0 := time.Now()
		res, err := sess.RunWorkload(job.Kernels, job.Scheme)
		d := time.Since(t0)
		c.tr.end(id)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			// The first run profiled the kernels; it is not a sample.
			if *sample, err = json.Marshal(res); err != nil {
				return 0, err
			}
			continue
		}
		xs = append(xs, millis(d))
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("too few served jobs to time one alone")
	}
	return median(xs), nil
}
