// Command ckedmil traces DMIL limit/inflight dynamics (development
// aid). It accepts one or more workloads (semicolon-separated kernel
// pairs) and traces them concurrently on a bounded worker pool; each
// trace is buffered and printed in workload order.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/runner"
	"repro/internal/sm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckedmil: ")
	pairs := flag.String("pairs", "bp,ks", "workloads to trace: kernel pairs separated by ';' (e.g. \"bp,ks;bp,sv\")")
	quota := flag.String("quota", "", "comma-separated TB quota (default max/2); applies to every workload")
	cycles := flag.Int64("cycles", 300_000, "cycles")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
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

	specs := strings.Split(*pairs, ";")
	bufs := make([]bytes.Buffer, len(specs))
	errs := make([]error, len(specs))
	runner.Map(ctx, *parallel, len(specs), func(i int) {
		errs[i] = trace(ctx, &bufs[i], strings.TrimSpace(specs[i]), *quota, *cycles, rb.Check, prof)
	})
	failed := 0
	for i, spec := range specs {
		if errs[i] == nil && ctx.Err() != nil && bufs[i].Len() == 0 {
			errs[i] = ctx.Err() // never dispatched before cancellation
		}
		if len(specs) > 1 {
			fmt.Printf("=== %s ===\n", strings.TrimSpace(spec))
		}
		os.Stdout.Write(bufs[i].Bytes())
		if errs[i] != nil {
			failed++
			if rb.Skip() {
				log.Printf("workload %q: %v", strings.TrimSpace(spec), errs[i])
				continue
			}
			log.Fatalf("workload %q: %v", strings.TrimSpace(spec), errs[i])
		}
	}
	if failed > 0 {
		log.Printf("%d workload(s) failed", failed)
		os.Exit(1)
	}
}

// trace runs one workload with per-kernel DMILs and writes the
// limit/inflight timeline plus the final result to w.
func trace(ctx context.Context, w io.Writer, pairSpec, quotaSpec string, cycles int64, check bool, prof *cli.Profiling) error {
	cfg := config.Scaled(4)
	var descs []*kern.Desc
	for _, n := range strings.Split(pairSpec, ",") {
		d, err := kern.ByName(strings.TrimSpace(n))
		if err != nil {
			return err
		}
		dd := d
		descs = append(descs, &dd)
	}
	row := make([]int, len(descs))
	if quotaSpec != "" {
		qs := strings.Split(quotaSpec, ",")
		if len(qs) != len(descs) {
			return fmt.Errorf("quota %q has %d entries for %d kernels", quotaSpec, len(qs), len(descs))
		}
		for i, q := range qs {
			v, err := strconv.Atoi(strings.TrimSpace(q))
			if err != nil || v < 1 {
				return fmt.Errorf("bad quota entry %q: want a positive integer", q)
			}
			row[i] = v
		}
	} else {
		for i, d := range descs {
			row[i] = d.MaxTBsPerSM(&cfg) / 2
			if row[i] < 1 {
				row[i] = 1
			}
		}
	}
	var dmils []*core.DMIL
	opts := &gpu.Options{
		Cycles: cycles,
		Quota:  gpu.UniformQuota(cfg.NumSMs, row),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter {
				d := core.NewDMIL(n)
				dmils = append(dmils, d)
				return d
			},
		},
		PhaseTime: prof.PhaseTrace,
	}
	if check {
		opts.Observers = []gpu.Observer{gpu.Watchdog(0, gpu.DefaultProgressWindow)}
	}
	opts.Observers = append(opts.Observers,
		gpu.Periodic(0, 50_000, func(g *gpu.GPU) error {
			fmt.Fprintf(w, "cycle=%7d sm0:", g.Cycle())
			for k := range descs {
				fmt.Fprintf(w, "  k%d lim=%3d inf=%3d", k, dmils[0].Limit(k), g.SMs[0].Inflight(k))
			}
			fmt.Fprintln(w)
			return nil
		}),
		gpu.Interrupt(0, cycles, func() bool { return ctx.Err() != nil }))
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "quota=%v\n", row)
	if err := g.RunCycles(opts); err != nil {
		return err
	}
	res := g.Result()
	g.Close()
	fmt.Fprint(w, res)
	fmt.Fprintf(w, "stall=%.3f\n", res.LSUStallFrac())
	return nil
}
