package main

import (
	"fmt"
	"runtime"
	"time"

	gcke "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

// The engine workloads run Session.RunWorkload on the paper's Table 1
// machine with the Workers/PartWorkers a user gets by default. One
// round is every job once; rounds repeat until --seconds are spent and
// each round is one throughput sample.

var engineSchemes = []gcke.Scheme{
	{Partition: gcke.PartitionEven},
	{Partition: gcke.PartitionEven, MemIssue: gcke.MemIssueQBMI, Limiting: gcke.LimitDMIL},
}

type engineJob struct {
	pair    pair
	scheme  gcke.Scheme
	kernels []gcke.Kernel
}

func (j engineJob) String() string { return j.pair[0] + "+" + j.pair[1] + " " + j.scheme.Name() }

// enginePairs deals three disjoint C+C pairs, or two M+M and two C+M
// pairs that between them run every memory-intensive kernel once.
func enginePairs(workload string, seed uint64) []pair {
	if workload == "engine-compute" {
		return drawPairs(seed, 3, 0, 0)
	}
	return drawPairs(seed, 0, 2, 2)
}

func runEngine(c *runCtx) error {
	cfg := gcke.DefaultConfig()
	cfg.Seed = c.Seed
	pairs := enginePairs(c.name, c.Seed)
	kernels, err := distinctKernels(pairs)
	if err != nil {
		return err
	}
	var jobs []engineJob
	for _, p := range pairs {
		ks, err := kernelsOf(p)
		if err != nil {
			return err
		}
		for _, sc := range engineSchemes {
			jobs = append(jobs, engineJob{p, sc, ks})
		}
	}
	labels := make([]string, len(jobs))
	for i, j := range jobs {
		labels[i] = j.String()
	}
	c.inputs = map[string]any{
		"machine": "gcke.DefaultConfig() (Table 1, 16 SMs)", "config_seed": c.Seed, "pairs": pairs,
		"cycles": c.sz.engineCycles, "profile_cycles": c.sz.engineProfile, "jobs_per_round": labels,
	}

	// Set-up is what a user pays before the first concurrent run: a
	// session with the isolated profile of every kernel.
	newSession := func(workers int) (*gcke.Session, error) {
		s := gcke.NewSession(cfg, c.sz.engineCycles)
		s.ProfileCycles = c.sz.engineProfile
		s.Workers, s.PartWorkers = workers, workers
		for _, k := range kernels {
			if _, err := s.RunIsolated(k); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	var sess *gcke.Session
	if err := c.timeSetup(
		func() (err error) { sess, err = newSession(0); return },
		func() error { sess = nil; return nil },
	); err != nil {
		return err
	}

	// The reference: the same round on the serial engine. Every timed
	// round must reproduce its bytes.
	ref, err := newSession(1)
	if err != nil {
		return err
	}
	refRes, err := c.engineRound(ref, jobs, -1)
	if err != nil {
		return err
	}
	refDigest, err := digestOf(refRes)
	if err != nil {
		return err
	}
	c.simDigest = refDigest
	var instrs, cycles float64
	for _, r := range refRes {
		cycles += float64(r.Cycles)
		for _, k := range r.Kernels {
			instrs += float64(k.Instrs)
		}
	}

	var plainWall, tracedWall []float64
	var phase gpu.PhaseStats
	mismatches := 0
	deadline := time.Now().Add(time.Duration(c.Seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// The traced run alternates plain and traced rounds, so the cost
		// of tracing is measured between neighbours in one process.
		traced := c.Trace && i%2 == 1
		sess.PhaseTime = traced
		root := -1
		if traced {
			root = c.tr.start("bench.round", -1)
		}
		p0 := gpu.PhaseTotals()
		t0 := time.Now()
		res, err := c.engineRound(sess, jobs, root)
		wall := time.Since(t0).Seconds()
		c.tr.end(root)
		c.attempted += len(jobs)
		if err != nil {
			c.failed++
			return err
		}
		if d, err := digestOf(res); err != nil || d != refDigest {
			mismatches++
		}
		if traced {
			tracedWall = append(tracedWall, wall)
			phase = addPhase(phase, gpu.PhaseTotals(), p0)
		} else {
			plainWall = append(plainWall, wall)
		}
	}
	c.check("rounds-equal-serial-reference", mismatches == 0,
		"%d of %d rounds differ from the Workers=1/PartWorkers=1 reference %s", mismatches, len(plainWall)+len(tracedWall), refDigest)

	c.rec.samples("sim_kcycles_per_s", perSecond(cycles/1000, plainWall))
	c.rec.samples("sim_kinstr_per_s", perSecond(instrs/1000, plainWall))
	if !c.Trace {
		return nil
	}

	c.rec.set("trace_overhead_frac", median(tracedWall)/median(plainWall)-1)
	c.rec.set("sm.phase_ns_per_cycle", float64(phase.SMNs)/float64(phase.Cycles))
	c.rec.set("icnt.phase_ns_per_cycle", float64(phase.ReqNetNs+phase.RespNetNs)/float64(phase.Cycles))
	c.simulatedLayerCounts(refRes, instrs, cycles)
	if err := c.engineLegs(cfg, jobs, refRes, median(plainWall)); err != nil {
		return err
	}
	if err := c.engineSnapshotCosts(cfg, jobs); err != nil {
		return err
	}
	return c.driveEngineLayers(cfg)
}

// engineRound runs every job once through the session and returns the
// results in job order. parent >= 0 records one span per call.
func (c *runCtx) engineRound(s *gcke.Session, jobs []engineJob, parent int) ([]*gcke.WorkloadResult, error) {
	out := make([]*gcke.WorkloadResult, len(jobs))
	for i, j := range jobs {
		id := -1
		if parent >= 0 {
			id = c.tr.start("session.RunWorkload", parent)
		}
		r, err := s.RunWorkload(j.kernels, j.scheme)
		c.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j, err)
		}
		out[i] = r
	}
	return out, nil
}

func addPhase(acc, now, before gpu.PhaseStats) gpu.PhaseStats {
	acc.Cycles += now.Cycles - before.Cycles
	acc.SMNs += now.SMNs - before.SMNs
	acc.DrainNs += now.DrainNs - before.DrainNs
	acc.ReqNetNs += now.ReqNetNs - before.ReqNetNs
	acc.PartNs += now.PartNs - before.PartNs
	acc.RespNetNs += now.RespNetNs - before.RespNetNs
	return acc
}

// simulatedLayerCounts reports what the modelled hardware did in one
// round. These are exact: a change that only speeds the simulator up
// must not move them.
func (c *runCtx) simulatedLayerCounts(res []*gcke.WorkloadResult, instrs, cycles float64) {
	var stall, smCycles, alu, aluSlots, acc, miss, rsfail, dram float64
	for _, r := range res {
		stall += float64(r.LSUStallCycles)
		smCycles += float64(r.SMCycles)
		alu += float64(r.ALUIssued + r.SFUIssued)
		aluSlots += float64(r.ALUPortCycles + r.SFUPortCycles)
		dram += float64(r.Mem.DRAMAccesses)
		for _, k := range r.Kernels {
			acc += float64(k.L1D.Accesses)
			miss += float64(k.L1D.Misses - k.L1D.Merged)
			rsfail += float64(k.L1D.RsFail)
		}
	}
	c.rec.exact("sm.lsu_stall_frac", stall/smCycles)
	c.rec.exact("sm.compute_util", alu/aluSlots)
	c.rec.exact("sm.ipc", instrs/cycles)
	c.rec.exact("cache.l1_miss_rate", miss/acc)
	c.rec.exact("cache.l1_rsfail_per_access", rsfail/acc)
	c.rec.exact("dram.accesses_per_kcycle", dram/(cycles/1000))
}

// engineOptions builds the gpu.Options Session.RunWorkload builds for
// the two schemes of the engine workloads, so that the legs below can
// call gpu.Run directly. engineLegs checks every leg's result against
// the session's, which keeps this copy honest.
func engineOptions(cfg *gcke.Config, ks []gcke.Kernel, sc gcke.Scheme, cycles int64) (*gpu.Options, []*kern.Desc) {
	descs := make([]*kern.Desc, len(ks))
	rpm := make([]int, len(ks))
	for i := range ks {
		d := ks[i]
		descs[i] = &d
		rpm[i] = d.ReqPerMinst
	}
	opts := &gpu.Options{Cycles: cycles, Quota: gpu.UniformQuota(cfg.NumSMs, core.EvenQuota(cfg, descs))}
	if sc.MemIssue == gcke.MemIssueQBMI {
		opts.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, rpm) }
	}
	if sc.Limiting == gcke.LimitDMIL {
		opts.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
	}
	return opts, descs
}

// engineLegs runs the round once per engine fan-out through gpu.Run,
// then once serially with the engine's phase clocks on, which is where
// the per-phase attribution and its coverage of wall time come from.
func (c *runCtx) engineLegs(cfg gcke.Config, jobs []engineJob, ref []*gcke.WorkloadResult, sessionRoundWall float64) error {
	n := runtime.NumCPU()
	kcycles := float64(len(jobs)) * float64(c.sz.engineCycles) / 1000
	leg := func(workers, partWorkers int, phaseTime bool) (time.Duration, error) {
		span := c.tr.start("gpu.Run", -1)
		defer c.tr.end(span)
		t0 := time.Now()
		for i, j := range jobs {
			opts, descs := engineOptions(&cfg, j.kernels, j.scheme, c.sz.engineCycles)
			opts.Workers, opts.PartWorkers, opts.PhaseTime = workers, partWorkers, phaseTime
			r, err := gpu.Run(cfg, descs, opts)
			if err != nil {
				return 0, fmt.Errorf("gpu.Run %s: %w", j, err)
			}
			if !sameJSON(r, ref[i].RunResult) {
				return 0, fmt.Errorf("gpu.Run %s (workers=%d part-workers=%d) differs from Session.RunWorkload", j, workers, partWorkers)
			}
		}
		return time.Since(t0), nil
	}
	var defaultWall time.Duration
	for _, l := range []struct {
		name string
		w, p int
	}{{"serial", 1, 1}, {"sm_fanout", n, 1}, {"part_fanout", 1, n}, {"pipelined", n, n}, {"default", 0, 0}} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := leg(l.w, l.p, false)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		c.rec.set("gpu.kcycles_per_s."+l.name, kcycles/d.Seconds())
		switch l.name {
		case "serial":
			c.rec.set("gpu.allocs_per_kcycle", float64(m1.Mallocs-m0.Mallocs)/kcycles)
		case "default":
			defaultWall = d
		}
	}
	c.rec.set("session.overhead_ms_per_run", (sessionRoundWall-defaultWall.Seconds())*1000/float64(len(jobs)))

	p0 := gpu.PhaseTotals()
	d, err := leg(1, 1, true)
	if err != nil {
		return err
	}
	ph := addPhase(gpu.PhaseStats{}, gpu.PhaseTotals(), p0)
	per := func(ns int64) float64 { return float64(ns) / float64(ph.Cycles) }
	c.rec.set("gpu.phase_ns_per_cycle.sm", per(ph.SMNs))
	c.rec.set("gpu.phase_ns_per_cycle.drain", per(ph.DrainNs))
	c.rec.set("gpu.phase_ns_per_cycle.reqnet", per(ph.ReqNetNs))
	c.rec.set("gpu.phase_ns_per_cycle.partition", per(ph.PartNs))
	c.rec.set("gpu.phase_ns_per_cycle.respnet", per(ph.RespNetNs))
	share := float64(ph.TotalNs()) / float64(d.Nanoseconds())
	c.rec.set("gpu.phase_wall_share", share)
	c.check("phases-cover-wall", share >= 0.9 || c.Smoke, "the five engine phases account for %.0f%% of the serial round's wall time, want at least 90%%", share*100)
	return nil
}

// engineSnapshotCosts times the engine's construction and state
// serialisation on the first job's machine, 2000 cycles in.
func (c *runCtx) engineSnapshotCosts(cfg gcke.Config, jobs []engineJob) error {
	j := jobs[0]
	opts, descs := engineOptions(&cfg, j.kernels, engineSchemes[0], 2000)
	var g *gpu.GPU
	var err error
	c.rec.samples("gpu.new_ms", timeN(3, func() {
		if g != nil {
			g.Close()
		}
		g, err = gpu.New(cfg, descs, opts)
	}))
	if err != nil {
		return err
	}
	defer g.Close()
	if err := g.RunCycles(opts); err != nil {
		return err
	}
	var sn *gpu.Snapshot
	c.rec.samples("gpu.snapshot_ms", timeN(3, func() { sn, err = g.Snapshot() }))
	if err != nil {
		return err
	}
	var raw []byte
	c.rec.samples("gpu.encode_snapshot_ms", timeN(3, func() { raw, err = gpu.EncodeSnapshot(sn) }))
	if err != nil {
		return err
	}
	c.rec.exact("gpu.snapshot_bytes", float64(len(raw)))
	c.rec.samples("gpu.restore_ms", timeN(3, func() { err = g.Restore(sn) }))
	return err
}

// timeN calls fn n times and returns each call's duration in ms.
func timeN(n int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = millis(time.Since(t0))
	}
	return out
}
