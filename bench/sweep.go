package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	gcke "repro"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kern"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/stats"
)

// sweep-fig12 is the user journey: the Figure-12 grid submitted as one
// runner.Run with every default a user gets (pool size, engine workers),
// an empty fsynced journal and an empty disk result cache, and a fresh
// session, so Warped-Slicer's scalability-curve
// profiling and its in-flight deduplication are inside the timed region.
// One pass is one complete cold sweep in its own stores; passes repeat
// until --seconds are spent and each is one sample.

var fig12Schemes = []gcke.Scheme{
	{Partition: gcke.PartitionSpatial},
	{Partition: gcke.PartitionWarpedSlicer},
	{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI},
	{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
}

// sweepStores is one sweep's durable state.
type sweepStores struct {
	dir     string
	journal *journal.Journal
	cache   *resultcache.Store
	run     *runner.Runner
}

func openSweepStores(dir string) (*sweepStores, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := journal.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	cache, err := resultcache.Open(resultcache.Options{Path: filepath.Join(dir, "cache.jsonl")})
	if err != nil {
		j.Close()
		return nil, err
	}
	r := runner.New(0)
	r.Journal, r.Cache = j, cache
	return &sweepStores{dir, j, cache, r}, nil
}

func (s *sweepStores) close() error {
	err := s.cache.Close()
	if jerr := s.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

func runSweep(c *runCtx) error {
	cfg := gcke.ScaledConfig(4)
	cfg.Seed = c.Seed
	cycles, profile := c.sz.sweepCycles, c.sz.sweepProfile
	pairs := drawPairs(c.Seed, 3, 3, 4)
	var jobs []runner.Job
	var labels []string
	for _, p := range pairs {
		ks, err := kernelsOf(p)
		if err != nil {
			return err
		}
		// Grid order, pair-major, as harness.RunAll submits it.
		for _, sc := range fig12Schemes {
			jobs = append(jobs, runner.Job{Config: cfg, Cycles: cycles, ProfileCycles: profile, Kernels: ks, Scheme: sc})
			labels = append(labels, p[0]+"+"+p[1]+" "+sc.Name())
		}
	}
	c.inputs = map[string]any{
		"machine": "gcke.ScaledConfig(4)", "config_seed": c.Seed, "pairs": pairs,
		"cycles": cycles, "profile_cycles": profile, "jobs": labels,
	}

	// Set-up is opening the empty stores and building the runner; nothing
	// is profiled ahead of the sweep.
	passDir := func(pass int) string { return filepath.Join(c.dir, fmt.Sprintf("sweep-%d", pass)) }
	var st *sweepStores
	if err := c.timeSetup(
		func() (err error) { st, err = openSweepStores(passDir(0)); return },
		func() error {
			if err := st.close(); err != nil {
				return err
			}
			return os.RemoveAll(passDir(0))
		},
	); err != nil {
		return err
	}

	var walls []float64
	var cold []runner.Result
	var instrs float64
	mismatches := 0
	deadline := time.Now().Add(time.Duration(c.Seconds) * time.Second)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if pass > 0 {
			if err := st.close(); err != nil {
				return err
			}
			var err error
			if st, err = openSweepStores(passDir(pass)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		res := st.run.Run(context.Background(), jobs)
		walls = append(walls, time.Since(t0).Seconds())
		c.attempted += len(jobs)
		for i, r := range res {
			if r.Err != nil {
				c.failed++
				c.note("job %s failed: %v", labels[i], r.Err)
			} else if r.Cached || r.Replayed {
				return fmt.Errorf("job %s was served from a store that should be cold", labels[i])
			}
		}
		if c.failed > 0 {
			return fmt.Errorf("%d of %d sweep jobs failed", c.failed, len(jobs))
		}
		if pass == 0 {
			cold = res
			for _, r := range res {
				for _, k := range r.Res.Kernels {
					instrs += float64(k.Instrs)
				}
			}
			continue
		}
		for i := range res {
			if !sameJSON(res[i].Res, cold[i].Res) {
				mismatches++
			}
		}
	}
	c.check("passes-agree", mismatches == 0, "%d results differ between two cold sweeps of one seed", mismatches)
	results := make([]*gcke.WorkloadResult, len(cold))
	for i, r := range cold {
		results[i] = r.Res
	}
	digest, err := digestOf(results)
	if err != nil {
		return err
	}
	c.simDigest = digest
	c.rec.samples("sim_kcycles_per_s", perSecond(float64(len(jobs))*float64(cycles)/1000, walls))
	c.rec.samples("sim_kinstr_per_s", perSecond(instrs/1000, walls))
	c.rec.samples("sweep_wall_s", walls)

	// Durability and replay: a new process opening the last pass's files
	// must serve every job from the stores, byte for byte.
	cs := st.cache.Stats()
	if err := st.close(); err != nil {
		return err
	}
	warmSt, err := openSweepStores(st.dir)
	if err != nil {
		return err
	}
	t1 := time.Now()
	warm := warmSt.run.Run(context.Background(), jobs)
	warmWall := time.Since(t1)
	served, same := 0, 0
	for i, r := range warm {
		if r.Err == nil && (r.Cached || r.Replayed) {
			served++
		}
		if r.Err == nil && sameJSON(r.Res, cold[i].Res) {
			same++
		}
	}
	c.check("warm-rerun-served-from-stores", served == len(jobs), "%d of %d jobs were simulated again", len(jobs)-served, len(jobs))
	c.check("warm-rerun-byte-identical", same == len(jobs), "%d of %d results differ from the cold sweep", len(jobs)-same, len(jobs))
	// The fidelity figures are arithmetic on results already held, so the
	// untraced ledger carries them too.
	if err := c.fidelity(cold); err != nil {
		return err
	}
	if !c.Trace {
		return warmSt.close()
	}

	c.rec.set("runner.warm_sweep_ms", millis(warmWall))
	c.rec.set("resultcache.hit_ratio", float64(cs.Hits)/math.Max(1, float64(cs.Hits+cs.Misses)))
	if err := c.driveRunner(warmSt, jobs); err != nil {
		return err
	}
	if err := warmSt.close(); err != nil {
		return err
	}
	if err := c.tracedSweep(jobs, cfg, cycles, profile, pairs, median(walls)); err != nil {
		return err
	}
	sample, err := json.Marshal(results[0])
	if err != nil {
		return err
	}
	_, err = c.driveStores(sample)
	return err
}

// tracedSweep repeats the cold sweep with spans: the profiling every
// Warped-Slicer job would trigger is issued first, one span per kernel,
// then each job is its own runner.Run call from runner.Map so that it
// gets its own span. The difference to the untraced sweep is the cost
// of tracing, restructuring included.
func (c *runCtx) tracedSweep(jobs []runner.Job, cfg gcke.Config, cycles, profile int64, pairs []pair, untracedWall float64) error {
	st, err := openSweepStores(filepath.Join(c.dir, "sweep-traced"))
	if err != nil {
		return err
	}
	defer st.close()
	kernels, err := distinctKernels(pairs)
	if err != nil {
		return err
	}
	sess, err := st.run.Session(cfg, cycles, profile)
	if err != nil {
		return err
	}
	root := c.tr.start("bench.sweep", -1)
	t0 := time.Now()
	profiling := c.tr.start("bench.profiling", root)
	profileRuns := 0
	for _, k := range kernels {
		id := c.tr.start("session.RunIsolated", profiling)
		_, err := sess.RunIsolated(k)
		c.tr.end(id)
		if err != nil {
			return err
		}
		id = c.tr.start("session.Curve", profiling)
		curve, err := sess.Curve(k)
		c.tr.end(id)
		if err != nil {
			return err
		}
		profileRuns += len(curve)
	}
	profilingTime := c.tr.end(profiling)

	grid := c.tr.start("runner.Map", root)
	failed := 0
	results := make([]runner.Result, len(jobs))
	runner.Map(context.Background(), st.run.Workers(), len(jobs), func(i int) {
		id := c.tr.start("runner.Run", grid)
		results[i] = st.run.Run(context.Background(), jobs[i:i+1])[0]
		c.tr.end(id)
	})
	gridTime := c.tr.end(grid)
	wall := time.Since(t0)
	c.tr.end(root)
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs of the traced sweep failed", failed)
	}
	c.rec.set("trace_overhead_frac", wall.Seconds()/untracedWall-1)
	c.rec.exact("session.profile_runs", float64(profileRuns))
	c.rec.set("session.profile_share", profilingTime.Seconds()/wall.Seconds())
	c.rec.set("runner.pool_util", c.tr.total("runner.Run").Seconds()/(float64(st.run.Workers())*gridTime.Seconds()))
	return c.kernelFidelity(sess, kernels)
}

// fidelity compares the six headline gains of WS-QBMI and WS-DMIL over
// WS (geometric mean over the drawn pairs) with the paper's. The model
// is validated only at shape level (results/paper-vs-measured.txt), so
// the six errors are printed beside their mean.
func (c *runCtx) fidelity(cold []runner.Result) error {
	type agg struct{ ws, antt, fair []float64 }
	by := make(map[string]*agg)
	for _, r := range cold {
		a := by[r.Res.Scheme.Name()]
		if a == nil {
			a = &agg{}
			by[r.Res.Scheme.Name()] = a
		}
		a.ws = append(a.ws, r.Res.WeightedSpeedup())
		a.antt = append(a.antt, r.Res.ANTT())
		a.fair = append(a.fair, r.Res.Fairness())
	}
	base := by["WS"]
	if base == nil {
		return fmt.Errorf("the sweep holds no WS results")
	}
	pub := harness.Published()
	rows := []struct {
		scheme, metric, name string
		paperPct             float64
	}{
		{"WS-QBMI", "ws", "core.ws_qbmi_ws_gain_pct", (pub.WSQBMIWS/pub.WSWS - 1) * 100},
		{"WS-DMIL", "ws", "core.ws_dmil_ws_gain_pct", (pub.WSDMILWS/pub.WSWS - 1) * 100},
		{"WS-QBMI", "antt", "core.ws_qbmi_antt_gain_pct", pub.QBMIANTTGain * 100},
		{"WS-DMIL", "antt", "core.ws_dmil_antt_gain_pct", pub.DMILANTTGain * 100},
		{"WS-QBMI", "fair", "core.ws_qbmi_fair_gain_pct", pub.QBMIFairGain * 100},
		{"WS-DMIL", "fair", "core.ws_dmil_fair_gain_pct", pub.DMILFairGain * 100},
	}
	var errSum float64
	agree := 0
	for _, row := range rows {
		a := by[row.scheme]
		if a == nil {
			return fmt.Errorf("the sweep holds no %s results", row.scheme)
		}
		var gain float64
		switch row.metric {
		case "ws":
			gain = gmeanFinite(a.ws)/gmeanFinite(base.ws) - 1
		case "antt": // lower is better
			gain = 1 - gmeanFinite(a.antt)/gmeanFinite(base.antt)
		case "fair":
			gain = gmeanFinite(a.fair)/gmeanFinite(base.fair) - 1
		}
		gain *= 100
		c.rec.exact(row.name, gain)
		c.note("%s: measured %+.1f%%, paper %+.1f%%, error %.1f pp", row.name, gain, row.paperPct, math.Abs(gain-row.paperPct))
		errSum += math.Abs(gain - row.paperPct)
		if (gain > 0) == (row.paperPct > 0) {
			agree++
		}
	}
	c.rec.exact("paper_headline_err_pp", errSum/float64(len(rows)))
	c.rec.exact("core.headline_sign_agree", float64(agree))
	return nil
}

// gmeanFinite is stats.GMean over the finite values (a kernel that
// issued nothing in a very short run has an infinite turnaround).
func gmeanFinite(xs []float64) float64 {
	var ok []float64
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			ok = append(ok, x)
		}
	}
	return stats.GMean(ok)
}

// kernelFidelity compares the drawn kernels' isolated behaviour (already
// cached in the session) with the paper's Table 2.
func (c *runCtx) kernelFidelity(sess *gcke.Session, kernels []gcke.Kernel) error {
	paper := harness.PaperTable2()
	var classOK int
	var missErr, rsfErr float64
	for _, k := range kernels {
		r, err := sess.RunIsolated(k)
		if err != nil {
			return err
		}
		row := paper[k.Name]
		class := kern.Compute
		if r.LSUStallFrac() >= 0.20 {
			class = kern.Memory
		}
		if class == row.Class {
			classOK++
		}
		l1 := r.Kernels[0].L1D
		missErr += math.Abs(l1.MissRate() - row.MissRate)
		// Rates span four decades and include zero, hence the offset.
		rsfErr += math.Abs(math.Log10((l1.RsFailRate() + 0.01) / (row.RsfailRate + 0.01)))
	}
	n := float64(len(kernels))
	c.rec.exact("kern.table2_class_agree", float64(classOK))
	c.rec.exact("kern.l1_miss_rate_abs_err", missErr/n)
	c.rec.exact("kern.rsfail_log10_err", rsfErr/n)
	c.note("kern.table2_class_agree is out of %d drawn kernels", len(kernels))
	return nil
}
