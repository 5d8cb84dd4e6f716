// Command ckesweep reproduces Figure 9: Weighted Speedup over a grid of
// static in-flight memory access limits (SMIL) for a 2-kernel workload.
// The grid points are independent simulations and run concurrently on a
// bounded worker pool (-parallel); output is identical to a serial run.
//
// With -fleet the sweep is instead sharded across remote ckeserve
// workers (started with -worker) by the fault-tolerant coordinator in
// internal/fleet: jobs are leased, requeued past dead or misbehaving
// workers, stragglers are hedged, and the merged result stream — NDJSON
// on stdout, one line per grid point in submission order — is
// byte-identical to a single-node run. -journal then names the
// coordinator's assignment journal: a killed coordinator restarted with
// the same journal resumes from the union of its own journal and every
// reachable worker's /journalz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckesweep: ")
	pair := flag.String("pair", "bp,ks", "kernel pair")
	sms := flag.Int("sms", 4, "SMs")
	cycles := flag.Int64("cycles", 150_000, "cycles per point")
	grid := flag.String("grid", "2,4,8,16,32,64,0", "limits to sweep (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	warmup := flag.Int64("warmup", 0, "unmanaged warmup cycles per point")
	fleetWorkers := flag.String("fleet", "", "comma-separated ckeserve -worker URLs; shard the sweep across them (NDJSON output)")
	fleetAddr := flag.String("fleet-addr", "", "coordinator control-plane listen address (/statz, /healthz); empty = off")
	fleetChaos := flag.String("fleet-chaos", "", "coordinator-side network fault injection (dev only), e.g. netdrop=0.3,net5xx=0.3,seed=42,failures=1")
	fleetAttempts := flag.Int("fleet-attempts", 8, "dispatch attempts per grid point before the coordinator gives up on it")
	fleetSlots := flag.Int("fleet-slots", 0, "concurrent dispatches per worker (0 = 2; keep at or below each worker's admission capacity)")
	hedgeAfter := flag.Duration("hedge-after", 0, "floor of the straggler-hedge threshold (0 = hedge only once a latency EWMA exists; negative disables hedging)")
	auditRate := flag.Float64("audit-rate", 0, "fraction of completed grid points re-executed on a different worker and byte-compared; divergence quarantines the lying worker (0 = off, 1 = audit everything)")
	fleetRetryBudget := flag.Float64("fleet-retry-budget", 0.1, "requeue tokens earned per audited completion; past-budget requeues are paced, never dropped")
	fleetRetryBurst := flag.Float64("fleet-retry-burst", 32, "fleet retry-budget token cap (also the initial balance)")
	fleetRetryWait := flag.Duration("fleet-retry-wait", 15*time.Second, "pacing delay applied to a requeue when the retry budget is empty")
	rb := cli.AddFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	if err := rb.Validate(); err != nil {
		log.Fatal(err)
	}
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	ctx, stop := cli.SignalContext()
	defer stop()

	if *fleetWorkers != "" {
		code := fleetSweep(ctx, rb, fleetOptions{
			workers:     strings.Split(*fleetWorkers, ","),
			addr:        *fleetAddr,
			chaosSpec:   *fleetChaos,
			attempts:    *fleetAttempts,
			slots:       *fleetSlots,
			hedgeAfter:  *hedgeAfter,
			auditRate:   *auditRate,
			retryBudget: *fleetRetryBudget,
			retryBurst:  *fleetRetryBurst,
			retryWait:   *fleetRetryWait,
		}, *pair, *sms, *cycles, *grid, *warmup)
		stopProf()
		os.Exit(code)
	}

	cfg := gcke.ScaledConfig(*sms)
	s := gcke.NewSession(cfg, *cycles)
	s.ProfileCycles = 60_000
	s.Check = rb.Check
	s.PhaseTime = prof.PhaseTrace

	var ds []gcke.Kernel
	for _, n := range strings.Split(*pair, ",") {
		d, err := gcke.Benchmark(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		ds = append(ds, d)
	}
	lims, err := parseGrid(*grid)
	if err != nil {
		log.Fatal(err)
	}

	// One job per (limit0, limit1) grid point, in row-major print order.
	var jobs []runner.Job
	for _, l0 := range lims {
		for _, l1 := range lims {
			jobs = append(jobs, runner.Job{
				Session: s,
				Kernels: ds,
				Scheme: gcke.Scheme{
					Partition:    gcke.PartitionWarpedSlicer,
					Limiting:     gcke.LimitStatic,
					StaticLimits: []int{l0, l1},
					Warmup:       *warmup,
				},
			})
		}
	}
	unique, expand, err := dedupeJobs(jobs)
	if err != nil {
		log.Fatal(err)
	}
	if n := len(jobs) - len(unique); n > 0 {
		log.Printf("collapsed %d duplicate grid point(s): %d unique of %d submitted", n, len(unique), len(jobs))
	}
	jnl, err := rb.OpenJournal(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if jnl != nil {
		defer jnl.Close()
	}
	rcache, err := rb.OpenCache(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	if rcache != nil {
		defer rcache.Close()
	}
	ckpts, err := rb.OpenCheckpoints(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	r := runner.New(*parallel)
	rb.Apply(r, jnl, rcache, ckpts)
	results := expand(r.Run(ctx, unique))
	failed, err := rb.Failures(log.Printf, results)
	if err != nil {
		log.Fatal(err)
	}

	name := func(v int) string {
		if v == 0 {
			return "inf"
		}
		return fmt.Sprint(v)
	}
	fmt.Printf("Weighted Speedup, %s: rows=Limit_k0(%s), cols=Limit_k1(%s)\n", *pair, ds[0].Name, ds[1].Name)
	fmt.Printf("%6s", "")
	for _, l1 := range lims {
		fmt.Printf(" %6s", name(l1))
	}
	fmt.Println()
	bestWS, bestI, bestJ := -1.0, 0, 0
	for i, l0 := range lims {
		fmt.Printf("%6s", name(l0))
		for j, l1 := range lims {
			res := results[i*len(lims)+j]
			if res.Err != nil {
				fmt.Printf(" %6s", "fail")
				continue
			}
			ws := res.Res.WeightedSpeedup()
			if ws > bestWS {
				bestWS, bestI, bestJ = ws, l0, l1
			}
			fmt.Printf(" %6.3f", ws)
		}
		fmt.Println()
	}
	if bestWS >= 0 {
		fmt.Printf("best: (%s,%s) WS=%.3f\n", name(bestI), name(bestJ), bestWS)
	}
	if failed > 0 {
		log.Print(cli.FailureSummary(results))
		os.Exit(1)
	}
}

// fleetOptions carries the -fleet* flag values into fleetSweep.
type fleetOptions struct {
	workers     []string
	addr        string
	chaosSpec   string
	attempts    int
	slots       int
	hedgeAfter  time.Duration
	auditRate   float64
	retryBudget float64
	retryBurst  float64
	retryWait   time.Duration
}

// fleetSweep shards the grid across remote workers via the fleet
// coordinator and streams the merged NDJSON (one line per grid point,
// submission order) to stdout. Returns the process exit code.
func fleetSweep(ctx context.Context, rb *cli.Robustness, o fleetOptions, pair string, sms int, cycles int64, grid string, warmup int64) int {
	lims, err := parseGrid(grid)
	if err != nil {
		log.Print(err)
		return 1
	}
	var kernels []string
	for _, n := range strings.Split(pair, ",") {
		kernels = append(kernels, strings.TrimSpace(n))
	}
	var timeout string
	if rb.Timeout > 0 {
		timeout = rb.Timeout.String()
	}
	var reqs []server.JobRequest
	for _, l0 := range lims {
		for _, l1 := range lims {
			reqs = append(reqs, server.JobRequest{
				SMs:           sms,
				Cycles:        cycles,
				ProfileCycles: 60_000, // match the local sweep's profiling window
				Kernels:       kernels,
				Scheme: gcke.Scheme{
					Partition:    gcke.PartitionWarpedSlicer,
					Limiting:     gcke.LimitStatic,
					StaticLimits: []int{l0, l1},
					Warmup:       warmup,
				},
				Timeout: timeout,
			})
		}
	}
	jnl, err := rb.OpenJournal(log.Printf)
	if err != nil {
		log.Print(err)
		return 1
	}
	cfg := fleet.Config{
		Workers:          o.workers,
		JobTimeout:       rb.Timeout,
		MaxAttempts:      o.attempts,
		SlotsPerWorker:   o.slots,
		Retry:            backoff.Default(),
		HedgeAfter:       o.hedgeAfter,
		AuditRate:        o.auditRate,
		RetryBudgetRatio: o.retryBudget,
		RetryBudgetBurst: o.retryBurst,
		RetryBudgetWait:  o.retryWait,
		Journal:          jnl,
		Logf:             log.Printf,
	}
	if o.chaosSpec != "" {
		ccfg, err := chaos.Parse(o.chaosSpec)
		if err != nil {
			log.Print(err)
			return 1
		}
		if ccfg.Enabled() {
			cfg.Transport = chaos.New(ccfg).Transport(nil)
			log.Printf("fleet chaos armed: %s (network faults on the dispatch path)", o.chaosSpec)
		}
	}
	c, err := fleet.New(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	if o.addr != "" {
		go func() {
			log.Printf("fleet control plane on %s (/statz, /healthz)", o.addr)
			if err := http.ListenAndServe(o.addr, c.Handler()); err != nil {
				log.Printf("fleet control plane: %v", err)
			}
		}()
	}
	runErr := c.Run(ctx, reqs, os.Stdout)
	st := c.StatsSnapshot()
	log.Printf("fleet: %d completed (%d resumed), %d failed, %d dispatches, %d requeues (%d budget-paced), %d sheds, %d hedges (%d won), %d ejections, %d audits (%d mismatched), %d quarantined",
		st.Completed, st.Resumed, st.Failed, st.Dispatched, st.Requeues, st.RetryBudgetWaits, st.Shed429, st.Hedges, st.HedgeWins, st.Ejections, st.Audits, st.AuditMismatches, st.Quarantined)
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Print(err)
			return 1
		}
	}
	if runErr != nil {
		log.Printf("fleet: %v", runErr)
		return 1
	}
	if st.Failed > 0 {
		return 1
	}
	return 0
}

// dedupeJobs collapses jobs with identical fingerprints (runner.Job.Key)
// at parse time, before any simulation: a grid spec like "2,2,4" submits
// duplicate points, and the engine is deterministic, so simulating a
// fingerprint once is enough. It returns the unique jobs in
// first-appearance order and an expand function mapping the unique
// results back onto the original grid shape.
func dedupeJobs(jobs []runner.Job) ([]runner.Job, func([]runner.Result) []runner.Result, error) {
	var unique []runner.Job
	firstOf := make(map[string]int) // fingerprint -> index in unique
	slot := make([]int, len(jobs))  // original index -> index in unique
	for i := range jobs {
		key, err := jobs[i].Key()
		if err != nil {
			return nil, nil, err
		}
		u, ok := firstOf[key]
		if !ok {
			u = len(unique)
			firstOf[key] = u
			unique = append(unique, jobs[i])
		}
		slot[i] = u
	}
	expand := func(res []runner.Result) []runner.Result {
		out := make([]runner.Result, len(slot))
		for i, u := range slot {
			out[i] = res[u]
		}
		return out
	}
	return unique, expand, nil
}

// parseGrid parses the comma-separated limit list, rejecting anything
// that is not a non-negative integer — a silently-dropped typo would
// otherwise become limit 0 (= unlimited) and corrupt the sweep.
func parseGrid(spec string) ([]int, error) {
	var lims []int
	for _, g := range strings.Split(spec, ",") {
		g = strings.TrimSpace(g)
		v, err := strconv.Atoi(g)
		if err != nil {
			return nil, fmt.Errorf("bad grid entry %q: limits must be integers (0 = unlimited)", g)
		}
		if v < 0 {
			return nil, fmt.Errorf("bad grid entry %q: limits cannot be negative", g)
		}
		lims = append(lims, v)
	}
	return lims, nil
}
