package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	gcke "repro"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/icnt"
	"repro/internal/journal"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/resultcache"
	"repro/internal/ring"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sm"
	"repro/internal/xrand"
)

// Standalone drives: each calls one package's public API in a loop with
// a seeded request stream and reports host time per call. They run only
// in the traced run, next to the workload whose end-to-end metric the
// layer is predicted to move.

// driveEngineLayers times sm, cache, icnt and dram alone.
func (c *runCtx) driveEngineLayers(cfg gcke.Config) error {
	drawn := drawPairs(c.Seed, 1, 1, 0)
	compute, err := gcke.Benchmark(drawn[0][0])
	if err != nil {
		return err
	}
	memory, err := gcke.Benchmark(drawn[1][0])
	if err != nil {
		return err
	}
	n := c.sz.micro
	c.rec.set("sm.tick_ns.compute", driveSM(&cfg, compute, n/2))
	c.rec.set("sm.tick_ns.memory", driveSM(&cfg, memory, n/2))
	hit, miss, rsfail := driveCache(&cfg, n*10)
	c.rec.set("cache.access_ns.hit", hit)
	c.rec.set("cache.access_ns.miss", miss)
	c.rec.set("cache.access_ns.rsfail", rsfail)
	c.rec.set("icnt.tick_ns", driveIcnt(&cfg, c.Seed, n))
	c.rec.set("dram.tick_ns.rowhit", driveDRAM(&cfg, c.Seed, n*4, false))
	c.rec.set("dram.tick_ns.conflict", driveDRAM(&cfg, c.Seed, n*4, true))
	return nil
}

// driveSM ticks one SM running k at full occupancy against a memory that
// answers every load miss after a fixed latency, and returns ns/Tick.
func driveSM(cfg *gcke.Config, k gcke.Kernel, ticks int) float64 {
	const latency = 200
	descs := []*kern.Desc{&k}
	s := sm.New(0, cfg, descs, []int{k.MaxTBsPerSM(cfg)}, nil, nil, nil, cfg.Seed)
	pool := &mem.Pool{}
	s.Pool, s.L1.Pool = pool, pool
	type flying struct {
		req *mem.Request
		at  int64
	}
	var inflight ring.Ring[flying] // constant latency keeps it ordered
	t0 := time.Now()
	for cyc := int64(0); cyc < int64(ticks); cyc++ {
		for !inflight.Empty() && inflight.Peek().at <= cyc {
			s.Deliver(inflight.Pop().req, cyc)
		}
		s.Tick(cyc)
		// One outbound request per cycle, as the engine's drain allows.
		if r := s.PopOutbound(); r != nil {
			if r.Kind == mem.Store {
				pool.Release(r) // forwarded stores never come back
			} else {
				inflight.Push(flying{r, cyc + latency})
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ticks)
}

// driveCache times the three L1D paths an access can take: a hit in a
// resident set, a streaming miss (allocate, fetch, fill) and a
// reservation failure with every MSHR taken. It returns ns per access.
func driveCache(cfg *gcke.Config, n int) (hit, miss, rsfail float64) {
	pool := &mem.Pool{}
	fill := func(c *cache.Cache) {
		f := c.PopMiss()
		for _, t := range c.Fill(f.LineAddr) {
			pool.Release(t)
		}
		pool.Release(f)
	}
	load := func(line uint64) *mem.Request {
		r := pool.Request()
		r.LineAddr, r.Kind = line, mem.Load
		return r
	}

	c := cache.New(cfg.L1D, 1)
	c.Pool = pool
	const resident = 64
	for l := uint64(0); l < resident; l++ {
		c.Access(load(l))
		fill(c)
	}
	probe := &mem.Request{Kind: mem.Load}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.LineAddr = uint64(i % resident)
		c.Access(probe)
	}
	hit = float64(time.Since(t0).Nanoseconds()) / float64(n)

	c = cache.New(cfg.L1D, 1)
	c.Pool = pool
	t0 = time.Now()
	for i := 0; i < n; i++ {
		c.Access(load(uint64(i)))
		fill(c)
	}
	miss = float64(time.Since(t0).Nanoseconds()) / float64(n)

	c = cache.New(cfg.L1D, 1)
	c.Pool = pool
	line := uint64(0)
	for ; c.MSHRInUse() < cfg.L1D.MSHRs; line++ {
		if r := load(line); c.Access(r).Failed() {
			pool.Release(r) // every way of this set is already reserved
		} else {
			pool.Release(c.PopMiss())
		}
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		probe.LineAddr = line + uint64(i)
		c.Access(probe)
	}
	rsfail = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return hit, miss, rsfail
}

// driveIcnt saturates one crossbar direction with uniform random
// traffic of mixed control and data packets and returns ns per cycle
// (Push, Tick, Pop, both commits).
func driveIcnt(cfg *gcke.Config, seed uint64, cycles int) float64 {
	ports := cfg.NumSMs
	net := icnt.New(cfg.Icnt, ports, ports)
	rng := xrand.New(seed)
	ctrl, data := icnt.CtrlFlits(cfg.Icnt), icnt.DataFlits(cfg.Icnt, cfg.L1D.LineBytes)
	req := &mem.Request{}
	t0 := time.Now()
	for cyc := int64(0); cyc < int64(cycles); cyc++ {
		for src := 0; src < ports; src++ {
			flits := ctrl
			if rng.Intn(2) == 0 {
				flits = data
			}
			net.Push(src, icnt.Packet{Req: req, Dst: rng.Intn(ports), Flits: flits})
		}
		net.Tick(cyc)
		for dst := 0; dst < ports; dst++ {
			for net.Pop(dst, cyc) != nil {
			}
		}
		net.CommitPops()
		net.CommitDeliveries()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles)
}

// driveDRAM keeps one channel's queue full and returns ns per Tick:
// sequential lines make FR-FCFS find a row hit at once, scattered rows
// make it scan the whole queue twice.
func driveDRAM(cfg *gcke.Config, seed uint64, cycles int, conflict bool) float64 {
	pool := &mem.Pool{}
	ch := dram.New(cfg.DRAM, cfg.L2.LineBytes)
	ch.Pool = pool
	rng := xrand.New(seed)
	linesPerRow := uint64(cfg.DRAM.RowBytes / cfg.L2.LineBytes)
	next := uint64(0)
	t0 := time.Now()
	for cyc := int64(0); cyc < int64(cycles); cyc++ {
		for ch.CanPush() {
			r := pool.Request()
			r.Kind = mem.Load
			if conflict {
				r.LineAddr = rng.Uint64n(1<<20) * linesPerRow
			} else {
				r.LineAddr = next
				next++
			}
			ch.Push(r, cyc)
		}
		ch.Tick(cyc)
		if r := ch.PopResponse(cyc); r != nil {
			pool.Release(r)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles)
}

// driveStores times the two append-only stores on their disk tier with
// values the size of a real result, and returns the cache's hit time in
// microseconds for the caller's own attribution.
func (c *runCtx) driveStores(value []byte) (float64, error) {
	n := c.sz.storeOps
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%04d", i)
	}

	st, err := resultcache.Open(resultcache.Options{Path: filepath.Join(c.dir, "drive-cache.jsonl")})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	puts := make([]float64, n)
	for i, k := range keys {
		t0 := time.Now()
		if err := st.Put(k, value); err != nil {
			return 0, err
		}
		puts[i] = micros(time.Since(t0))
	}
	c.rec.samples("resultcache.put_us", puts)
	const reads = 20
	t0 := time.Now()
	for r := 0; r < reads; r++ {
		for _, k := range keys {
			if _, ok := st.Get(k); !ok {
				return 0, fmt.Errorf("resultcache: %s vanished", k)
			}
		}
	}
	hitUs := micros(time.Since(t0)) / float64(reads*n)
	c.rec.set("resultcache.get_hit_us", hitUs)
	t0 = time.Now()
	for r := 0; r < reads; r++ {
		for _, k := range keys {
			st.Get("absent-" + k)
		}
	}
	c.rec.set("resultcache.get_miss_us", micros(time.Since(t0))/float64(reads*n))

	path := filepath.Join(c.dir, "drive-journal.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		return 0, err
	}
	appends := make([]float64, n)
	for i, k := range keys {
		t0 := time.Now()
		if err := j.Append(k, json.RawMessage(value)); err != nil {
			j.Close()
			return 0, err
		}
		appends[i] = micros(time.Since(t0))
	}
	c.rec.samples("journal.append_us", appends)
	t0 = time.Now()
	for _, k := range keys {
		var res gcke.WorkloadResult // what the runner decodes into
		if ok, err := j.Lookup(k, &res); err != nil || !ok {
			j.Close()
			return 0, fmt.Errorf("journal: lookup %s: ok=%v err=%v", k, ok, err)
		}
	}
	c.rec.set("journal.lookup_us", micros(time.Since(t0))/float64(n))
	if err := j.Close(); err != nil {
		return 0, err
	}
	t0 = time.Now()
	j, err = journal.Open(path)
	if err != nil {
		return 0, err
	}
	c.rec.set("journal.open_replay_ms_per_1k", millis(time.Since(t0))*1000/float64(n))
	if j.Len() != n {
		j.Close()
		return 0, fmt.Errorf("journal: replay recovered %d of %d entries", j.Len(), n)
	}
	return hitUs, j.Close()
}

// driveRunner times what the runner itself adds to a job: the
// fingerprint, and a bare one-worker runner serving jobs its cache
// already holds.
func (c *runCtx) driveRunner(st *sweepStores, jobs []runner.Job) error {
	const keyReps = 25
	t0 := time.Now()
	for r := 0; r < keyReps; r++ {
		for i := range jobs {
			if _, err := jobs[i].Key(); err != nil {
				return err
			}
		}
	}
	c.rec.set("runner.key_us", micros(time.Since(t0))/float64(keyReps*len(jobs)))

	bare := runner.New(1)
	bare.Cache = st.cache
	id := c.tr.start("runner.Run cached", -1)
	res := bare.Run(context.Background(), jobs)
	d := c.tr.end(id)
	for _, r := range res {
		if r.Err != nil || !r.Cached {
			return fmt.Errorf("bare runner: job %s was not served from the cache (err=%v)", r.Key, r.Err)
		}
	}
	c.rec.set("runner.overhead_us_per_job", micros(d)/float64(len(jobs)))
	return nil
}

// driveCheckpoint times one mid-job checkpoint of a served job the way
// Session.RunWorkloadCheckpointedCtx takes it: snapshot, encode, save;
// and the way a resume reads it: latest, decode.
func (c *runCtx) driveCheckpoint(body []byte) error {
	var req server.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	job, key, _, err := req.Build()
	if err != nil {
		return err
	}
	// An even, unmanaged machine of the job's size: the job's only
	// stateful policy, SMIL, adds a few bytes of limits to a checkpoint.
	opts, descs := engineOptions(&job.Config, job.Kernels, engineSchemes[0], job.Cycles/2)
	g, err := gpu.New(job.Config, descs, opts)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := g.RunCycles(opts); err != nil {
		return err
	}
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		return err
	}
	var state []byte
	c.rec.samples("ckpt.marshal_ms", timeN(5, func() { state, err = gpu.EncodeSnapshot(sn) }))
	if err != nil {
		return err
	}
	c.rec.exact("ckpt.bytes", float64(len(state)))
	c.rec.samples("ckpt.unmarshal_ms", timeN(5, func() { _, err = gpu.DecodeSnapshot(state) }))
	if err != nil {
		return err
	}
	store, err := ckpt.OpenStore(filepath.Join(c.dir, "drive-ckpt"))
	if err != nil {
		return err
	}
	cycle := int64(0)
	c.rec.samples("ckpt.save_ms", timeN(10, func() {
		cycle++
		if serr := store.Save(key, cycle, state); serr != nil {
			err = serr
		}
	}))
	if err != nil {
		return err
	}
	c.rec.samples("ckpt.latest_ms", timeN(10, func() {
		if _, _, ok := store.Latest(key); !ok {
			err = fmt.Errorf("ckpt: no checkpoint for %s after Save", key)
		}
	}))
	return err
}
