// Command ckebench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) and writes one text
// file per experiment under -out.
//
// Usage:
//
//	ckebench [-out results] [-sms 4] [-cycles 300000] [-profile-cycles 60000]
//	         [-pairs default|all] [-only fig12,fig13] [-paper-scale] [-parallel N]
//
// -paper-scale selects the full Table 1 machine (16 SMs) and 2M-cycle
// runs; expect hours of runtime for the full suite.
//
// Each experiment's (workload x scheme) grid fans out over a bounded
// worker pool (-parallel, default GOMAXPROCS). The engine is
// deterministic and results are rendered in submission order, so the
// output files are byte-identical to a serial (-parallel 1) run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	gcke "repro"
	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/journal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckebench: ")
	outDir := flag.String("out", "results", "output directory")
	sms := flag.Int("sms", 4, "number of SMs (memory system scales)")
	cycles := flag.Int64("cycles", 300_000, "evaluation cycles per run")
	profCycles := flag.Int64("profile-cycles", 60_000, "isolated profiling cycles per run")
	pairsFlag := flag.String("pairs", "default", "pair set: default or all")
	only := flag.String("only", "", "comma-separated experiment subset (e.g. fig12,fig13)")
	paperScale := flag.Bool("paper-scale", false, "16 SMs and 2M cycles (slow)")
	parallel := flag.Int("parallel", 0, "worker pool size per experiment (0 = GOMAXPROCS, 1 = serial)")
	check := flag.Bool("check", false, "enable the per-cycle simulator invariant watchdog")
	journalPath := flag.String("journal", "", "checkpoint journal path; completed points are replayed on restart (empty = disabled)")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	ctx, stop := cli.SignalContext()
	defer stop()
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	cfg := gcke.ScaledConfig(*sms)
	if *paperScale {
		cfg = gcke.DefaultConfig()
		*cycles = 2_000_000
		*profCycles = 200_000
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	session := gcke.NewSession(cfg, *cycles)
	session.ProfileCycles = *profCycles
	session.Check = *check
	session.PhaseTime = prof.PhaseTrace
	var jnl *journal.Journal
	if *journalPath != "" {
		var err error
		jnl, err = journal.Open(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer jnl.Close()
		if n := jnl.Len(); n > 0 {
			fmt.Printf("journal %s: resuming past %d checkpointed point(s)\n", *journalPath, n)
		}
	}
	profilePath := filepath.Join(*outDir, "profiles.json")
	if err := session.LoadProfiles(profilePath); err == nil {
		fmt.Println("loaded cached isolated profiles from", profilePath)
	}
	defer func() {
		if err := session.SaveProfiles(profilePath); err != nil {
			log.Printf("saving profiles: %v", err)
		}
	}()

	pairs := harness.DefaultPairs()
	if *pairsFlag == "all" {
		pairs = harness.AllPairs()
	}
	selected := harness.DefaultPairs()[:6] // the paper's six study pairs
	triples := harness.DefaultTriples()

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	runExp := func(name string, fn func(h *harness.Harness) error) {
		if !enabled(name) {
			return
		}
		path := filepath.Join(*outDir, name+".txt")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		h := harness.New(session, f)
		h.Parallel = *parallel
		h.Ctx = ctx
		h.Journal = jnl
		start := time.Now()
		if err := fn(h); err != nil {
			if errors.Is(err, context.Canceled) {
				// SIGINT/SIGTERM: completed points are already journaled;
				// rerunning with the same -journal resumes from here.
				log.Fatalf("%s: interrupted; checkpointed progress preserved", name)
			}
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-12s -> %s (%.1fs)\n", name, path, time.Since(start).Seconds())
	}

	runExp("table2", func(h *harness.Harness) error { return h.PrintTable2() })
	runExp("fig3", func(h *harness.Harness) error { return h.Figure3("bp", "sv") })
	runExp("fig4", func(h *harness.Harness) error { _, err := h.Figure4(pairs); return err })
	runExp("fig5", func(h *harness.Harness) error { _, err := h.Figure5(selected); return err })
	runExp("fig6", func(h *harness.Harness) error { return h.Figure6("bp", "sv", 64) })
	runExp("fig8", func(h *harness.Harness) error { return h.Figure8("bp", "sv", 0) })
	runExp("fig9", func(h *harness.Harness) error {
		grid := []int{2, 4, 8, 16, 32, 64, 0}
		if err := h.Figure9("pf", "bp", grid); err != nil { // C+C
			return err
		}
		if err := h.Figure9("bp", "ks", grid); err != nil { // C+M
			return err
		}
		return h.Figure9("sv", "ks", grid) // M+M
	})
	runExp("fig11", func(h *harness.Harness) error { return h.Figure11(pairs, selected) })
	runExp("fig12", func(h *harness.Harness) error { return h.Figure12(pairs) })
	runExp("fig13", func(h *harness.Harness) error { return h.Figure13(pairs) })
	runExp("fig14", func(h *harness.Harness) error { return h.Figure14(triples) })

	// Sensitivity and ablation studies build their own sessions; the
	// shortened pair list keeps them tractable.
	sens := pairs
	if len(sens) > 6 {
		sens = sens[:6]
	}
	runExp("sens-l1d", func(h *harness.Harness) error {
		return harness.SensitivityL1D(cfg, *cycles, *profCycles, sens, h)
	})
	runExp("sens-lrr", func(h *harness.Harness) error {
		return harness.SensitivityLRR(cfg, *cycles, *profCycles, sens, h)
	})
	runExp("sens-mshr", func(h *harness.Harness) error {
		return harness.AblationMSHR(cfg, *cycles, *profCycles, sens, h)
	})
	runExp("abl-gdmil", func(h *harness.Harness) error {
		return h.AblationGlobalDMIL(sens)
	})
	runExp("abl-bypass", func(h *harness.Harness) error {
		// C+M pairs: bypass the memory-intensive kernel's L1.
		return h.AblationBypass([]harness.Workload{
			harness.NewWorkload("bp", "sv"),
			harness.NewWorkload("bp", "ks"),
		})
	})
	runExp("abl-dynws", func(h *harness.Harness) error {
		return h.AblationDynWS(sens)
	})
	runExp("abl-l2mil", func(h *harness.Harness) error {
		return h.AblationL2MIL([]harness.Workload{
			harness.NewWorkload("bp", "sv"),
			harness.NewWorkload("bp", "ks"),
		})
	})
	runExp("energy", func(h *harness.Harness) error {
		return h.EnergyStudy(sens)
	})
	runExp("abl-qbmi", func(h *harness.Harness) error {
		return h.AblationQBMIRefresh(sens)
	})
	runExp("abl-tbt", func(h *harness.Harness) error {
		return h.AblationTBThrottle([]harness.Workload{
			harness.NewWorkload("bp", "sv"),
			harness.NewWorkload("bp", "ks"),
			harness.NewWorkload("sv", "ks"),
		})
	})
	runExp("paper-vs-measured", func(h *harness.Harness) error {
		return h.PaperComparison(pairs, triples)
	})
}
