// Command ckesim runs one workload under one scheme and prints the
// paper's metrics.
//
// Usage:
//
//	ckesim -kernels bp,sv -scheme ws-dmil [-sms 4] [-cycles 300000]
//
// Schemes: spatial, leftover, even, ws, dynws, ws-rbmi, ws-qbmi,
// ws-dmil, ws-l2mil, ws-ucp, smk, smk-qbmi, smk-dmil, and
// ws-smil:<l0>,<l1>,... with per-kernel static limits (0 = unlimited).
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	gcke "repro"
	"repro/internal/cli"
)

func parseScheme(s string, nKernels int) (gcke.Scheme, error) {
	if rest, ok := strings.CutPrefix(s, "ws-smil:"); ok {
		parts := strings.Split(rest, ",")
		if len(parts) != nKernels {
			return gcke.Scheme{}, fmt.Errorf("ws-smil needs %d limits, got %d", nKernels, len(parts))
		}
		lims := make([]int, len(parts))
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return gcke.Scheme{}, fmt.Errorf("bad limit %q: %v", p, err)
			}
			lims[i] = v
		}
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitStatic, StaticLimits: lims}, nil
	}
	switch s {
	case "spatial":
		return gcke.Scheme{Partition: gcke.PartitionSpatial}, nil
	case "leftover":
		return gcke.Scheme{Partition: gcke.PartitionLeftover}, nil
	case "even":
		return gcke.Scheme{Partition: gcke.PartitionEven}, nil
	case "ws":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer}, nil
	case "ws-rbmi":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueRBMI}, nil
	case "ws-qbmi":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI}, nil
	case "ws-dmil":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL}, nil
	case "ws-ucp":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, UCP: true}, nil
	case "smk":
		return gcke.Scheme{Partition: gcke.PartitionSMK, SMKQuota: true}, nil
	case "smk-qbmi":
		return gcke.Scheme{Partition: gcke.PartitionSMK, MemIssue: gcke.MemIssueQBMI}, nil
	case "smk-dmil":
		return gcke.Scheme{Partition: gcke.PartitionSMK, Limiting: gcke.LimitDMIL}, nil
	case "dynws":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicerDyn}, nil
	case "ws-l2mil":
		return gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitL2MIL}, nil
	default:
		return gcke.Scheme{}, fmt.Errorf("unknown scheme %q", s)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckesim: ")
	kernels := flag.String("kernels", "bp,sv", "comma-separated kernel names")
	schemeName := flag.String("scheme", "ws", "CKE scheme")
	sms := flag.Int("sms", 4, "number of SMs")
	cycles := flag.Int64("cycles", 300_000, "evaluation cycles")
	profCycles := flag.Int64("profile-cycles", 60_000, "profiling cycles")
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
	session := gcke.NewSession(cfg, *cycles)
	session.ProfileCycles = *profCycles
	session.Check = rb.Check
	session.PhaseTime = prof.PhaseTrace

	var wl []gcke.Kernel
	for _, n := range strings.Split(*kernels, ",") {
		d, err := gcke.Benchmark(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		wl = append(wl, d)
	}
	scheme, err := parseScheme(*schemeName, len(wl))
	if err != nil {
		log.Fatal(err)
	}

	res, err := session.RunWorkloadCtx(ctx, wl, scheme)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s under %s (%d SMs, %d cycles)\n",
		*kernels, scheme.Name(), *sms, *cycles)
	if res.TBPartition != nil {
		fmt.Printf("TB partition per SM: %v\n", res.TBPartition)
	}
	sp := res.SpeedupsOf()
	fmt.Printf("WeightedSpeedup %.3f  ANTT %.3f  Fairness %.3f  LSUStall %.1f%%  ComputeUtil %.3f\n",
		res.WeightedSpeedup(), res.ANTT(), res.Fairness(),
		res.LSUStallFrac()*100, res.ComputeUtil())
	for i, k := range res.Kernels {
		fmt.Printf("  %-4s speedup=%.3f ipc=%7.3f l1dMiss=%.3f l1dRsfail=%7.3f\n",
			k.Name, sp[i], k.IPC, k.L1D.MissRate(), k.L1D.RsFailRate())
	}
}
