// Command ckebench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) and writes one text
// file per experiment under -out.
//
// Usage:
//
//	ckebench [-out results] [-sms 4] [-cycles 300000] [-profile-cycles 60000]
//	         [-pairs default|all] [-only fig12,fig13] [-paper-scale] [-parallel N]
//	         [-fleet URL,URL...]
//
// -only names experiments from the table in experiments (table2 is
// Table 2 and Figure 2, measured on isolated runs of -profile-cycles);
// an unknown name, or a -pairs value other than default or all, is
// refused before anything is simulated or written.
//
// -paper-scale selects the full Table 1 machine (16 SMs) and 2M-cycle
// runs: Figure 12 alone took 816 s on two cores, profiles included (see
// results/paper-scale/).
//
// Each experiment's (workload x scheme) grid fans out over a bounded
// worker pool (-parallel, default GOMAXPROCS). The engine is
// deterministic and results are rendered in submission order, so the
// output files are byte-identical to a serial (-parallel 1) run.
//
// With -fleet the grids run on ckeserve processes instead, through the
// fault-tolerant coordinator in internal/fleet (leases, requeues, hedged
// stragglers, audits), with the same output files; -journal then lets a
// restarted run skip what finished. Isolated characterisations (Table 2,
// Figure 3) still run in this process; the workers profile for their own
// jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	gcke "repro"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckebench: ")
	outDir := flag.String("out", "results", "output directory")
	sms := flag.Int("sms", 4, "number of SMs (memory system scales)")
	cycles := flag.Int64("cycles", 300_000, "evaluation cycles per run")
	profCycles := flag.Int64("profile-cycles", 60_000, "isolated profiling cycles per run (0 = -cycles)")
	pairsFlag := flag.String("pairs", "default", "pair set: default or all")
	only := flag.String("only", "", "comma-separated experiment subset (e.g. fig12,fig13)")
	paperScale := flag.Bool("paper-scale", false, "16 SMs and 2M cycles (slow)")
	parallel := flag.Int("parallel", 0, "worker pool size, shared by every experiment (0 = GOMAXPROCS, 1 = serial); with -fleet the fleet's capacity sizes the grids' pool")
	rb := cli.AddFlags(flag.CommandLine, "check", "journal", "timeout")
	fleetURLs := flag.String("fleet", "", "comma-separated ckeserve URLs to run the grids on, -timeout bounding each lease (empty = this process)")
	fleetAddr := flag.String("fleet-addr", "", "with -fleet: coordinator control-plane listen address (/statz, /healthz); empty = off")
	fleetChaos := flag.String("fleet-chaos", "", "with -fleet: network fault injection on the dispatch path (dev only), e.g. net5xx=0.2,failures=1,seed=9")
	hedgeAfter := flag.Duration("hedge-after", 0, "with -fleet: floor of the straggler-hedge threshold (0 = hedge once a dispatch-latency estimate exists; negative disables hedging)")
	auditRate := flag.Float64("audit-rate", 0, "with -fleet: fraction of results re-executed on another worker and byte-compared (0 = off, 1 = all)")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	if err := cli.CheckMachine(*sms, *cycles, *profCycles, *parallel); err != nil {
		log.Fatal(err)
	}
	if err := rb.Validate(); err != nil {
		log.Fatal(err)
	}
	if rb.Check && *fleetURLs != "" {
		log.Fatal("-check cannot be combined with -fleet: the workers do not run the invariant watchdog")
	}
	cfg := gcke.ScaledConfig(*sms)
	if *paperScale {
		cfg = gcke.DefaultConfig()
		*cycles = 2_000_000
		*profCycles = 200_000
	}
	exps, err := experiments(*pairsFlag, *only)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// One runner for the whole process, with a result store (memory-only
	// without -journal): experiments that share points (fig12 and
	// paper-vs-measured) simulate them once.
	rb.Cache = true
	run, closeStores, err := rb.Runner(*parallel, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer closeStores()
	run.PhaseTime = prof.PhaseTrace
	var co *fleet.Coordinator
	// fatalf exits 1, printing the fleet summary first when there is a
	// fleet: a failed run's counters are what there is to debug from.
	fatalf := func(format string, args ...any) {
		if co != nil {
			logFleetStats(co)
		}
		log.Fatalf(format, args...)
	}
	if *fleetURLs != "" {
		co, err = openFleet(strings.Split(*fleetURLs, ","), *fleetAddr, *fleetChaos, rb.Timeout, *hedgeAfter, *auditRate)
		if err != nil {
			log.Fatal(err)
		}
		defer co.Close()
		defer logFleetStats(co)
		run.Executor = co
	}
	for _, e := range exps {
		path := filepath.Join(*outDir, e.name+".txt")
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		h := &harness.Harness{Config: cfg, Cycles: *cycles, ProfileCycles: *profCycles, Out: f, Ctx: ctx, Runner: run}
		start := time.Now()
		err = e.run(h)
		f.Close()
		if errors.Is(err, context.Canceled) {
			// SIGINT/SIGTERM: completed points are already journaled;
			// rerunning with the same -journal resumes from here.
			fatalf("%s: interrupted; journaled progress preserved", e.name)
		} else if err != nil {
			fatalf("%s: %v", e.name, err)
		}
		fmt.Printf("%-12s -> %s (%.1fs)\n", e.name, path, time.Since(start).Seconds())
	}
}

// experiment is one output file of ckebench: results/<name>.txt.
type experiment struct {
	name string
	run  func(h *harness.Harness) error
}

// experiments is the table of every experiment ckebench runs, in run
// order, on the pair set pairSet (default or all), cut to the
// comma-separated names in only (empty = all of them).
func experiments(pairSet, only string) ([]experiment, error) {
	var pairs []harness.Workload
	switch pairSet {
	case "default":
		pairs = harness.DefaultPairs()
	case "all":
		pairs = harness.AllPairs()
	default:
		return nil, fmt.Errorf("-pairs %q: want default or all", pairSet)
	}
	selected := harness.DefaultPairs()[:6] // the paper's six study pairs
	triples := harness.DefaultTriples()
	// Sensitivity studies build their own sessions; the shortened pair
	// list keeps them and the ablations tractable.
	sens := pairs
	if len(sens) > 6 {
		sens = sens[:6]
	}
	cm := []harness.Workload{harness.NewWorkload("bp", "sv"), harness.NewWorkload("bp", "ks")}
	compare := func(name string, workloads []harness.Workload) experiment {
		return experiment{name, func(h *harness.Harness) error { return h.Compare(name, workloads) }}
	}
	all := []experiment{
		{"table2", func(h *harness.Harness) error { return h.PrintTable2() }},
		{"fig3", func(h *harness.Harness) error { return h.Figure3("bp", "sv") }},
		{"fig4", func(h *harness.Harness) error { _, err := h.Figure4(pairs); return err }},
		{"fig5", func(h *harness.Harness) error { _, err := h.Figure5(selected); return err }},
		{"fig6", func(h *harness.Harness) error { return h.Figure6("bp", "sv", 64) }},
		{"fig8", func(h *harness.Harness) error { return h.Figure8("bp", "sv", 0) }},
		{"fig9", func(h *harness.Harness) error {
			grid := []int{2, 4, 8, 16, 32, 64, 0}
			for _, p := range [][2]string{{"pf", "bp"}, {"bp", "ks"}, {"sv", "ks"}} { // C+C, C+M, M+M
				if err := h.Figure9(p[0], p[1], grid); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig11", func(h *harness.Harness) error { return h.Figure11(pairs, selected) }},
		compare("fig12", pairs),
		compare("fig13", pairs),
		compare("fig14", triples),
		compare("sens-l1d", sens),
		compare("sens-lrr", sens),
		compare("sens-mshr", sens),
		compare("abl-gdmil", sens),
		// C+M pairs: bypass the memory-intensive kernel's L1.
		compare("abl-bypass", cm),
		compare("abl-dynws", sens),
		compare("abl-l2mil", cm),
		{"energy", func(h *harness.Harness) error { return h.EnergyStudy(sens) }},
		compare("abl-qbmi", sens),
		compare("abl-tbt", append(cm, harness.NewWorkload("sv", "ks"))),
		{"paper-vs-measured", func(h *harness.Harness) error { return h.PaperComparison(pairs, triples) }},
	}
	if only == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []experiment
	for _, e := range all {
		if want[e.name] {
			out = append(out, e)
			delete(want, e.name)
		}
	}
	for name := range want { // what is left names no experiment
		return nil, fmt.Errorf("-only: no experiment named %q", name)
	}
	return out, nil
}

// logFleetStats prints the fleet's end-of-run summary line.
func logFleetStats(co *fleet.Coordinator) {
	st := co.StatsSnapshot()
	log.Printf("fleet: %d completed, %d failed, %d dispatches, %d requeues, %d sheds, %d hedges (%d won), %d ejections, %d audits (%d mismatched), %d quarantined",
		st.Completed, st.Failed, st.Dispatched, st.Requeues, st.Shed429, st.Hedges, st.HedgeWins, st.Ejections, st.Audits, st.AuditMismatches, st.Quarantined)
}

// openFleet assembles the coordinator -fleet names and, with addr, serves
// its control plane.
func openFleet(workers []string, addr, chaosSpec string, timeout, hedgeAfter time.Duration, auditRate float64) (*fleet.Coordinator, error) {
	cfg := fleet.Config{
		Workers:    workers,
		JobTimeout: timeout,
		HedgeAfter: hedgeAfter,
		AuditRate:  auditRate,
		Logf:       log.Printf,
	}
	if chaosSpec != "" {
		ccfg, err := chaos.Parse(chaosSpec)
		if err != nil {
			return nil, err
		}
		if ccfg.Enabled() {
			cfg.Transport = chaos.New(ccfg).Transport(nil)
			log.Printf("fleet chaos armed: %s (network faults on the dispatch path)", chaosSpec)
		}
	}
	co, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if addr != "" {
		go func() {
			log.Printf("fleet control plane on %s (/statz, /healthz)", addr)
			if err := http.ListenAndServe(addr, co.Handler()); err != nil {
				log.Printf("fleet control plane: %v", err)
			}
		}()
	}
	return co, nil
}
