// Command ckesim is the simulate driver: it runs every workload of a
// grid under every scheme of a list as one runner.Run, and prints each
// job's metrics in grid order whatever the pool size.
//
//	ckesim -kernels 'bp,sv;bp,ks' -scheme 'ws;ws-dmil' [-sms 4] [-cycles 300000]
//	ckesim -kernels bp,ks -scheme even -sms 1 -cycles 20000 -trace 120 [-kind rsfail]
//
// A scheme is a TB partition (spatial, leftover, even, ws, dynws, smk, or
// tbs:<t0>,<t1>,... TBs per SM) optionally followed by one mechanism
// (-rbmi, -qbmi, -dmil, -l2mil, -ucp, or -smil:<l0>,<l1>,... static
// limits, 0 = unlimited). A bare smk is SMK-(P+W); a mechanism takes the
// place of its warp quota. -trace prints one job's event mix and last N
// events; -series prints each job's 1 K-cycle series as TSV. A failed
// job prints its error in its place and is logged with its class
// (transient or permanent); the exit is then non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	gcke "repro"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/trace"
)

// partitions are the TB partitions a scheme starts from; tbs is the
// manual one and takes one count per kernel.
var partitions = map[string]gcke.Scheme{
	"spatial":  {Partition: gcke.PartitionSpatial},
	"leftover": {Partition: gcke.PartitionLeftover},
	"even":     {Partition: gcke.PartitionEven},
	"ws":       {Partition: gcke.PartitionWarpedSlicer},
	"dynws":    {Partition: gcke.PartitionWarpedSlicerDyn},
	"smk":      {Partition: gcke.PartitionSMK, SMKQuota: true},
	"tbs":      {Partition: gcke.PartitionManual},
}

// mechanisms are what a scheme layers on its partition; smil takes one
// limit per kernel.
var mechanisms = map[string]gcke.Scheme{
	"rbmi":  {MemIssue: gcke.MemIssueRBMI},
	"qbmi":  {MemIssue: gcke.MemIssueQBMI},
	"dmil":  {Limiting: gcke.LimitDMIL},
	"l2mil": {Limiting: gcke.LimitL2MIL},
	"ucp":   {UCP: true},
	"smil":  {Limiting: gcke.LimitStatic},
}

// parseScheme composes <partition>[-<mechanism>]; Scheme.Validate judges
// the combination against a workload.
func parseScheme(s string) (gcke.Scheme, error) {
	part, mech, layered := strings.Cut(s, "-")
	sc, tbs, err := lookup(partitions, part)
	if err != nil {
		return sc, err
	}
	sc.ManualTBs = tbs
	if layered {
		m, limits, err := lookup(mechanisms, mech)
		if err != nil {
			return sc, err
		}
		sc.SMKQuota = false
		sc.MemIssue, sc.Limiting, sc.StaticLimits, sc.UCP = m.MemIssue, m.Limiting, limits, m.UCP
	}
	if (tbs != nil) != (sc.Partition == gcke.PartitionManual) || (sc.StaticLimits != nil) != (sc.Limiting == gcke.LimitStatic) {
		return sc, errors.New("tbs and smil take counts, nothing else does")
	}
	return sc, nil
}

// lookup finds name[:<c0>,<c1>,...] in table and parses the counts.
func lookup(table map[string]gcke.Scheme, s string) (gcke.Scheme, []int, error) {
	name, list, hasCounts := strings.Cut(s, ":")
	sc, ok := table[name]
	if !ok {
		return sc, nil, fmt.Errorf("unknown partition or mechanism %q", name)
	}
	if !hasCounts {
		return sc, nil, nil
	}
	var counts []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return sc, nil, fmt.Errorf("bad count %q in %q", f, s)
		}
		counts = append(counts, v)
	}
	return sc, counts, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckesim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ckesim", flag.ContinueOnError)
	kernels := fs.String("kernels", "bp,sv", "workloads: comma-separated kernel names, workloads separated by ';'")
	schemeList := fs.String("scheme", "ws", "schemes separated by ';' (see the command doc)")
	sms := fs.Int("sms", 4, "number of SMs")
	cycles := fs.Int64("cycles", 300_000, "evaluation cycles")
	profCycles := fs.Int64("profile-cycles", 60_000, "isolated profiling cycles (0 = -cycles)")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	tail := fs.Int("trace", 0, "trace the one job and print its event mix and last N events (0 = off)")
	kind := fs.String("kind", "", "with -trace, print only events of this kind (e.g. rsfail, mem-issue)")
	series := fs.Bool("series", false, "print each job's 1 K-cycle series as TSV")
	rb := cli.AddFlags(fs, "check", "journal", "timeout")
	prof := cli.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.CheckMachine(*sms, *cycles, *profCycles, *parallel); err != nil {
		return err
	}
	if *tail < 0 {
		return fmt.Errorf("-trace=%d: want a count >= 0 (0 = off)", *tail)
	}

	cfg := gcke.ScaledConfig(*sms)
	var jobs []runner.Job
	var labels []string
	for _, spec := range strings.Split(*kernels, ";") {
		var wl []gcke.Kernel
		for _, n := range strings.Split(spec, ",") {
			d, err := gcke.Benchmark(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			wl = append(wl, d)
		}
		for _, s := range strings.Split(*schemeList, ";") {
			sc, err := parseScheme(strings.TrimSpace(s))
			if err == nil {
				sc.Series = *series
				err = sc.Validate(len(wl))
			}
			if err != nil {
				return fmt.Errorf("scheme %q: %w", s, err)
			}
			jobs = append(jobs, runner.Job{Config: cfg, Cycles: *cycles, ProfileCycles: *profCycles, Kernels: wl, Scheme: sc})
			labels = append(labels, fmt.Sprintf("%s under %s", strings.TrimSpace(spec), sc.Name()))
		}
	}
	// A stored result has no events.
	if *tail > 0 && (len(jobs) != 1 || rb.JournalPath != "") {
		return errors.New("-trace needs exactly one job and no -journal")
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stop := cli.SignalContext()
	defer stop()
	r, closeStores, err := rb.Runner(*parallel, log.Printf)
	if err != nil {
		return err
	}
	defer closeStores()
	r.PhaseTime = prof.PhaseTrace
	// Every job runs on the runner's one session for the machine.
	s, err := r.Session(cfg, *cycles, *profCycles)
	if err != nil {
		return err
	}
	if *tail > 0 {
		s.Trace = trace.New(1 << 16)
	}
	results := r.Run(ctx, jobs)
	failed, err := cli.Failures(log.Printf, results)
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Fprintf(w, "== %s (%d SMs, %d cycles)\n", labels[i], *sms, *cycles)
		if res.Err != nil {
			fmt.Fprintf(w, "fail: %v\n", res.Err)
			continue
		}
		printResult(w, res.Res)
		if *series {
			printSeries(w, res.Res)
		}
	}
	if s.Trace != nil {
		s.Trace.Summary(w, *tail, *kind)
	}
	if failed > 0 {
		return errors.New(cli.FailureSummary(results))
	}
	return nil
}

func printResult(w io.Writer, res *gcke.WorkloadResult) {
	fmt.Fprintf(w, "partition %v  theoWS %.3f\n", res.TBPartition, res.TheoreticalWS)
	fmt.Fprintf(w, "WS %.3f  ANTT %.3f  fairness %.3f  stall %.3f  computeUtil %.3f\n",
		res.WeightedSpeedup(), res.ANTT(), res.Fairness(), res.LSUStallFrac(), res.ComputeUtil())
	sp := res.SpeedupsOf()
	for i, k := range res.Kernels {
		fmt.Fprintf(w, "  %-4s speedup=%.3f ipc=%7.3f mem=%8d req=%9d l1dMiss=%.3f l1dRsfail=%.3f rsfail[mshr=%d missq=%d line=%d]\n",
			k.Name, sp[i], k.IPC, k.MemInstrs, k.Requests, k.L1D.MissRate(), k.L1D.RsFailRate(),
			k.L1D.RsFailMSHR, k.L1D.RsFailMQ, k.L1D.RsFailLine)
	}
}

// printSeries writes one row per 1 K-cycle bucket. The in-flight and
// limit samples are taken at the ends of the buckets before the last,
// partial, one; a bucket without a sample (the last, and every limit
// cell without DMIL) leaves its cell empty.
func printSeries(w io.Writer, res *gcke.WorkloadResult) {
	fmt.Fprint(w, "bucket")
	for _, k := range res.Kernels {
		fmt.Fprintf(w, "\t%s.issued\t%s.l1acc\t%s.inflight\t%s.limit", k.Name, k.Name, k.Name, k.Name)
	}
	for b := range res.Kernels[0].Series.Issued {
		fmt.Fprintf(w, "\n%d", b)
		for _, k := range res.Kernels {
			s := k.Series
			i := b - (len(s.Issued) - 1 - len(s.Inflight)) // the bucket's sample
			fmt.Fprintf(w, "\t%d\t%d\t%s\t%s", s.Issued[b], s.L1Acc[b], cell(s.Inflight, i), cell(s.Limit, i))
		}
	}
	fmt.Fprintln(w)
}

func cell(samples []uint32, i int) string {
	if i < 0 || i >= len(samples) {
		return ""
	}
	return strconv.Itoa(int(samples[i]))
}
