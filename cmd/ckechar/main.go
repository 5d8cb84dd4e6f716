// Command ckechar characterizes the thirteen paper benchmarks in
// isolation, reproducing Table 2 (occupancies, Cinst/Minst, Req/Minst,
// L1D miss and reservation-failure rates, C/M classification) and
// Figure 2 (ALU/SFU utilization vs LSU stall share).
//
// Usage:
//
//	ckechar [-sms N] [-cycles N] [-bench name,name,...] [-parallel N]
//
// The per-benchmark isolated runs are independent and execute
// concurrently on a bounded worker pool; rows print in benchmark order
// regardless of which run finishes first.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/kern"
	"repro/internal/runner"
)

// charRow is one benchmark's measured characterization.
type charRow struct {
	desc gcke.Kernel
	res  *gcke.RunResult
	cls  kern.Class
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckechar: ")
	sms := flag.Int("sms", 4, "number of SMs (memory system scales with it)")
	cycles := flag.Int64("cycles", 100_000, "simulated cycles per run")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	verbose := flag.Bool("v", false, "print reservation-failure breakdown")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	rb := cli.AddFlags(flag.CommandLine, "check")
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
	s := gcke.NewSession(cfg, *cycles)
	s.Check = rb.Check
	s.PhaseTime = prof.PhaseTrace

	names := gcke.BenchmarkNames()
	if *benchList != "" {
		names = strings.Split(*benchList, ",")
	}

	rows := make([]charRow, len(names))
	err = runner.MapErr(ctx, *parallel, len(names), func(i int) error {
		d, err := gcke.Benchmark(strings.TrimSpace(names[i]))
		if err != nil {
			return err
		}
		r, err := s.RunIsolatedCtx(ctx, d)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		cls, err := s.ClassifyCtx(ctx, d)
		if err != nil {
			return err
		}
		rows[i] = charRow{desc: d, res: r, cls: cls}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Benchmark characterization (%d SMs, %d cycles)\n\n", *sms, *cycles)
	fmt.Printf("%-4s %6s %7s %8s %7s %6s %6s %9s %10s %5s %8s %8s %9s\n",
		"name", "RF_oc", "SMEM_oc", "Thrd_oc", "TB_oc",
		"C/M", "Req/M", "l1d_miss", "l1d_rsfail", "type", "IPC", "ALUutil", "LSUstall")
	for _, row := range rows {
		d, r := row.desc, row.res
		maxTBs := d.MaxTBsPerSM(&cfg)
		occ := d.OccupancyAt(&cfg, maxTBs)
		k := r.Kernels[0]
		reqPerM := 0.0
		if k.MemInstrs > 0 {
			reqPerM = float64(k.Requests) / float64(k.MemInstrs)
		}
		fmt.Printf("%-4s %5.1f%% %6.1f%% %7.1f%% %6.1f%% %6d %6.1f %9.3f %10.3f %5s %8.3f %8.3f %8.1f%%\n",
			d.Name, occ.RF*100, occ.Smem*100, occ.Threads*100, occ.TBs*100,
			d.CPerM, reqPerM, k.L1D.MissRate(), k.L1D.RsFailRate(),
			row.cls, k.IPC, r.ALUUtil(), r.LSUStallFrac()*100)
		if *verbose {
			fmt.Printf("     rsfail: mshr=%d missq=%d line=%d  (acc=%d miss=%d merged=%d)\n",
				k.L1D.RsFailMSHR, k.L1D.RsFailMQ, k.L1D.RsFailLine,
				k.L1D.Accesses, k.L1D.Misses, k.L1D.Merged)
		}
	}
}
