// Starvation reproduces the paper's Figure 6 scenario: the compute
// kernel bp shares SMs with the memory kernel sv, and its L1 D-cache
// access rate collapses far below its isolated rate because sv's memory
// instructions monopolize the shared memory pipeline. Quota-based
// balanced memory issuing (QBMI) then restores part of bp's access
// bandwidth — the paper's Figure 8 effect.
package main

import (
	"fmt"
	"log"

	gcke "repro"
)

func avg(series []uint32) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range series {
		sum += uint64(v)
	}
	return float64(sum) / float64(len(series))
}

func main() {
	log.SetFlags(0)
	cfg := gcke.ScaledConfig(4)
	session := gcke.NewSession(cfg, 120_000)
	session.ProfileCycles = 60_000

	bp, err := gcke.Benchmark("bp")
	if err != nil {
		log.Fatal(err)
	}
	sv, err := gcke.Benchmark("sv")
	if err != nil {
		log.Fatal(err)
	}

	// Isolated baselines with 1K-cycle time series: each kernel alone,
	// whose even partition is its full occupancy.
	alone := gcke.Scheme{Partition: gcke.PartitionEven, Series: true}
	isoBP, err := session.RunWorkload([]gcke.Kernel{bp}, alone)
	if err != nil {
		log.Fatal(err)
	}
	isoSV, err := session.RunWorkload([]gcke.Kernel{sv}, alone)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("L1D accesses per 1K cycles (whole GPU):")
	fmt.Printf("  bp alone: %7.0f\n", avg(isoBP.Kernels[0].Series.L1Acc))
	fmt.Printf("  sv alone: %7.0f\n", avg(isoSV.Kernels[0].Series.L1Acc))

	for _, sc := range []gcke.Scheme{
		{Partition: gcke.PartitionWarpedSlicer, Series: true},
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI, Series: true},
	} {
		res, err := session.RunWorkload([]gcke.Kernel{bp, sv}, sc)
		if err != nil {
			log.Fatal(err)
		}
		sp := res.SpeedupsOf()
		fmt.Printf("\nco-run under %s (TB split %v):\n", sc.Name(), res.TBPartition)
		fmt.Printf("  bp: %7.0f accesses/1K  (normalized IPC %.3f)\n",
			avg(res.Kernels[0].Series.L1Acc), sp[0])
		fmt.Printf("  sv: %7.0f accesses/1K  (normalized IPC %.3f)\n",
			avg(res.Kernels[1].Series.L1Acc), sp[1])
		fmt.Printf("  memory pipeline stalled %.1f%% of cycles\n", res.LSUStallFrac()*100)
	}
}
