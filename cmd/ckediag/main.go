// Command ckediag compares schemes on one 2-kernel workload
// (development aid; the full experiment suite lives in cmd/ckebench).
// The schemes are independent simulations and run concurrently on a
// bounded worker pool (-parallel); the table order never changes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/runner"
)

func main() {
	log.SetFlags(0)
	sms := flag.Int("sms", 4, "SMs")
	cycles := flag.Int64("cycles", 300_000, "evaluation cycles")
	profCycles := flag.Int64("profile-cycles", 60_000, "profiling cycles")
	warmup := flag.Int64("warmup", 0, "unmanaged warmup cycles per scheme")
	pair := flag.String("pair", "bp,sv", "kernel pair")
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

	cfg := gcke.ScaledConfig(*sms)
	session := gcke.NewSession(cfg, *cycles)
	session.ProfileCycles = *profCycles
	session.Check = rb.Check
	session.PhaseTime = prof.PhaseTrace

	names := strings.Split(*pair, ",")
	var ds []gcke.Kernel
	for _, n := range names {
		d, err := gcke.Benchmark(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		ds = append(ds, d)
	}

	schemes := []gcke.Scheme{
		{Partition: gcke.PartitionSpatial},
		{Partition: gcke.PartitionWarpedSlicer},
		{Partition: gcke.PartitionWarpedSlicerDyn},
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueRBMI},
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI},
		{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		{Partition: gcke.PartitionSMK, SMKQuota: true},
		{Partition: gcke.PartitionSMK, MemIssue: gcke.MemIssueQBMI},
		{Partition: gcke.PartitionSMK, Limiting: gcke.LimitDMIL},
	}
	jobs := make([]runner.Job, len(schemes))
	for i := range schemes {
		schemes[i].Warmup = *warmup
		jobs[i] = runner.Job{Session: session, Kernels: ds, Scheme: schemes[i]}
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
	results := r.Run(ctx, jobs)
	failed, err := rb.Failures(log.Printf, results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %6s %6s %8s %7s %7s %7s %8s\n",
		"scheme", "WS", "ANTT", "fairness", "stall", "k0-spd", "k1-spd", "theoWS")
	for i, sc := range schemes {
		if results[i].Err != nil {
			fmt.Printf("%-16s %6s\n", sc.Name(), "fail")
			continue
		}
		res := results[i].Res
		sp := res.SpeedupsOf()
		fmt.Printf("%-16s %6.3f %6.3f %8.3f %7.3f %7.3f %7.3f %8.3f\n",
			sc.Name(), res.WeightedSpeedup(), res.ANTT(), res.Fairness(),
			res.LSUStallFrac(), sp[0], sp[1], res.TheoreticalWS)
	}
	if failed > 0 {
		log.Print(cli.FailureSummary(results))
		os.Exit(1)
	}
}
