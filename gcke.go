// Package gcke is the public API of the GPU concurrent-kernel-execution
// (CKE) simulator reproducing "Accelerate GPU Concurrent Kernel
// Execution by Mitigating Memory Pipeline Stalls" (HPCA 2018).
//
// The package wraps a from-scratch cycle-level GPU microarchitecture
// simulator (SMs with GTO/LRR warp schedulers, L1D with MSHR/miss-queue
// reservation-failure semantics, crossbar, banked L2, FR-FCFS DRAM) and
// the paper's mechanisms: Warped-Slicer and SMK thread-block
// partitioning, UCP L1D cache partitioning, balanced memory request
// issuing (RBMI/QBMI) and memory instruction limiting (SMIL/DMIL).
//
// Typical use:
//
//	cfg := gcke.DefaultConfig()
//	s := gcke.NewSession(cfg, 100_000)
//	bp, _ := gcke.Benchmark("bp")
//	sv, _ := gcke.Benchmark("sv")
//	res, err := s.RunWorkload([]gcke.Kernel{bp, sv}, gcke.Scheme{
//	    Partition: gcke.PartitionWarpedSlicer,
//	    Limiting:  gcke.LimitDMIL,
//	})
//	fmt.Println(res.WeightedSpeedup())
package gcke

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/stats"
)

// Re-exported building blocks.
type (
	// Config is the architecture configuration (Table 1 defaults).
	Config = config.Config
	// Kernel describes one synthetic kernel (see internal/kern.Desc).
	Kernel = kern.Desc
	// RunResult is the raw outcome of one simulation.
	RunResult = stats.RunResult
	// EnergyModel holds the per-event energy constants (Section 4.5's
	// energy-efficiency discussion).
	EnergyModel = stats.EnergyModel
)

// DefaultEnergyModel returns the reference energy constants.
func DefaultEnergyModel() EnergyModel { return stats.DefaultEnergyModel() }

// DefaultConfig returns the paper's Table 1 baseline: 16 SMs, 4 GTO
// schedulers, 24 KB 6-way L1D with 128 MSHRs, 2 MB L2, 16 DRAM channels.
func DefaultConfig() Config { return config.Default() }

// ScaledConfig returns a machine with nSMs SMs and a proportionally
// scaled memory system (per-SM behaviour preserved; used to keep sweep
// runtimes practical).
func ScaledConfig(nSMs int) Config { return config.Scaled(nSMs) }

// Benchmark returns one of the paper's Table 2 benchmarks by name
// (cp hs dc pf bp bs st 3m sv cd s2 ks ax).
func Benchmark(name string) (Kernel, error) { return kern.ByName(name) }

// Benchmarks returns all thirteen Table 2 benchmarks in paper order.
func Benchmarks() []Kernel { return kern.Benchmarks() }

// BenchmarkNames returns the Table 2 benchmark names in paper order.
func BenchmarkNames() []string { return kern.Names() }

// PartitionKind selects how thread blocks are partitioned among kernels.
type PartitionKind int

const (
	// PartitionWarpedSlicer picks the scalability-curve sweet spot
	// (profiled from isolated runs, cached by the Session).
	PartitionWarpedSlicer PartitionKind = iota
	// PartitionSMK uses SMK's dominant-resource-fair allocation.
	PartitionSMK
	// PartitionSpatial assigns whole SMs to kernels.
	PartitionSpatial
	// PartitionLeftover gives kernel 0 everything that fits and later
	// kernels the remainder.
	PartitionLeftover
	// PartitionEven splits occupancy evenly (simple baseline).
	PartitionEven
	// PartitionManual uses Scheme.ManualTBs on every SM.
	PartitionManual
	// PartitionWarpedSlicerDyn is the paper's dynamic Warped-Slicer: it
	// profiles the kernels online at the start of the concurrent run
	// (each SM measures one TB configuration, time-shared across
	// rounds) and then applies the sweet-spot partition. A run that
	// ends before the partition applies is refused before it starts,
	// and a failed sweet-spot search fails the run.
	PartitionWarpedSlicerDyn
)

func (p PartitionKind) String() string {
	switch p {
	case PartitionWarpedSlicer:
		return "WS"
	case PartitionSMK:
		return "SMK-P"
	case PartitionSpatial:
		return "Spatial"
	case PartitionLeftover:
		return "Leftover"
	case PartitionEven:
		return "Even"
	case PartitionManual:
		return "Manual"
	case PartitionWarpedSlicerDyn:
		return "dynWS"
	default:
		return fmt.Sprintf("PartitionKind(%d)", int(p))
	}
}

// MemIssueKind selects the memory-instruction issue arbiter.
type MemIssueKind int

const (
	// MemIssueDefault is the unmanaged baseline (scheduler order wins).
	MemIssueDefault MemIssueKind = iota
	// MemIssueRBMI is loose round-robin between kernels.
	MemIssueRBMI
	// MemIssueQBMI is the paper's quota-based balanced issuing.
	MemIssueQBMI
)

func (m MemIssueKind) String() string {
	switch m {
	case MemIssueRBMI:
		return "RBMI"
	case MemIssueQBMI:
		return "QBMI"
	default:
		return "default"
	}
}

// LimitKind selects the in-flight memory instruction limiter.
type LimitKind int

const (
	// LimitNone applies no cap.
	LimitNone LimitKind = iota
	// LimitStatic applies Scheme.StaticLimits (SMIL).
	LimitStatic
	// LimitDMIL runs one MILG per kernel per SM (the paper's local DMIL).
	LimitDMIL
	// LimitGlobalDMIL shares one MILG set across SMs (ablation).
	LimitGlobalDMIL
	// LimitL2MIL throttles from L2/DRAM-side congestion signals (the
	// paper's Section 4.5 future-work direction).
	LimitL2MIL
)

func (l LimitKind) String() string {
	switch l {
	case LimitStatic:
		return "SMIL"
	case LimitDMIL:
		return "DMIL"
	case LimitGlobalDMIL:
		return "gDMIL"
	case LimitL2MIL:
		return "L2MIL"
	default:
		return "none"
	}
}

// Scheme is a full CKE configuration: a TB partitioning baseline plus
// the paper's mechanisms layered on top.
type Scheme struct {
	Partition PartitionKind
	MemIssue  MemIssueKind
	Limiting  LimitKind
	// StaticLimits holds per-kernel SMIL caps (core.Unlimited = none).
	StaticLimits []int
	// SMKQuota enables SMK's periodic warp-instruction quota (the "+W"
	// in SMK-(P+W)); it is mutually exclusive with MemIssue/Limiting
	// mechanisms per the paper's evaluation.
	SMKQuota bool
	// UCP enables utility-based L1D way partitioning.
	UCP bool
	// ManualTBs is the per-kernel TB partition for PartitionManual.
	ManualTBs []int
	// BypassL1 marks kernels whose L1D load misses bypass allocation
	// (Section 4.5's cache-bypassing interplay study). nil disables.
	BypassL1 []bool
	// QBMIRefreshAllZero switches QBMI to SMK-style quota refresh (only
	// when every kernel is spent) for the ablation study; the paper
	// refreshes when any kernel's quota reaches zero.
	QBMIRefreshAllZero bool
	// TBThrottle enables DynCTA-style dynamic thread-block throttling
	// (the related-work baseline the paper contrasts with: coarser
	// granularity than MIL).
	TBThrottle bool
	// Series enables 1 K-cycle time-series collection: per-kernel
	// issued instructions and L1D accesses per bucket, and, sampled at
	// every multiple of 1024 cycles, in-flight memory instructions and,
	// under LimitDMIL, the limiting number (see stats.Series).
	Series bool
}

// Validate rejects undefined kinds, scheme combinations the paper never
// evaluates and per-kernel slice arity mismatches for a workload of
// nKernels kernels. RunWorkload calls it before simulating; drivers can
// call it earlier to fail fast when assembling large experiment grids.
func (s Scheme) Validate(nKernels int) error {
	if s.Partition < PartitionWarpedSlicer || s.Partition > PartitionWarpedSlicerDyn {
		return fmt.Errorf("gcke: undefined partition kind %d", int(s.Partition))
	}
	if s.MemIssue < MemIssueDefault || s.MemIssue > MemIssueQBMI {
		return fmt.Errorf("gcke: undefined memory issue kind %d", int(s.MemIssue))
	}
	if s.Limiting < LimitNone || s.Limiting > LimitL2MIL {
		return fmt.Errorf("gcke: undefined limiting kind %d", int(s.Limiting))
	}
	if s.SMKQuota && s.MemIssue != MemIssueDefault {
		return fmt.Errorf("gcke: SMKQuota is mutually exclusive with MemIssue=%s (the paper layers either +W or a memory mechanism on SMK, never both)", s.MemIssue)
	}
	if s.SMKQuota && s.Limiting != LimitNone {
		return fmt.Errorf("gcke: SMKQuota is mutually exclusive with Limiting=%s (the paper layers either +W or a memory mechanism on SMK, never both)", s.Limiting)
	}
	if s.Limiting == LimitStatic {
		if len(s.StaticLimits) != nKernels {
			return fmt.Errorf("gcke: StaticLimits has %d entries for %d kernels", len(s.StaticLimits), nKernels)
		}
		for _, l := range s.StaticLimits {
			if l < 0 {
				return fmt.Errorf("gcke: StaticLimits %v: a cap is at least 0 (0 = unlimited)", s.StaticLimits)
			}
		}
	}
	if s.Partition == PartitionManual {
		if len(s.ManualTBs) != nKernels {
			return fmt.Errorf("gcke: ManualTBs has %d entries for %d kernels", len(s.ManualTBs), nKernels)
		}
		for _, n := range s.ManualTBs {
			if n < 1 {
				return fmt.Errorf("gcke: ManualTBs %v: every kernel needs at least 1 TB per SM", s.ManualTBs)
			}
		}
	}
	if s.BypassL1 != nil && len(s.BypassL1) != nKernels {
		return fmt.Errorf("gcke: BypassL1 has %d entries for %d kernels", len(s.BypassL1), nKernels)
	}
	if s.TBThrottle && (s.Partition == PartitionSpatial || s.Partition == PartitionWarpedSlicerDyn) {
		return fmt.Errorf("gcke: TBThrottle needs a uniform TB partition (not spatial/dynamic)")
	}
	return nil
}

// Name renders a scheme label like "WS-QBMI" or "SMK-(P+W)".
func (s Scheme) Name() string {
	n := s.Partition.String()
	if s.Partition == PartitionSMK {
		if s.SMKQuota {
			return "SMK-(P+W)"
		}
		switch {
		case s.MemIssue == MemIssueQBMI:
			return "SMK-(P+QBMI)"
		case s.MemIssue == MemIssueRBMI:
			return "SMK-(P+RBMI)"
		case s.Limiting == LimitDMIL:
			return "SMK-(P+DMIL)"
		case s.Limiting == LimitStatic:
			return "SMK-(P+SMIL)"
		}
		return "SMK-P"
	}
	if s.UCP {
		n += "-L1DPart"
	}
	if s.BypassL1 != nil {
		n += "-Bypass"
	}
	if s.TBThrottle {
		n += "-TBT"
	}
	if s.MemIssue != MemIssueDefault {
		n += "-" + s.MemIssue.String()
	}
	if s.Limiting != LimitNone {
		n += "-" + s.Limiting.String()
	}
	return n
}

// WorkloadResult is the outcome of a concurrent run plus the context
// needed for the paper's metrics.
type WorkloadResult struct {
	*RunResult
	Scheme        Scheme
	TBPartition   []int     // per-SM partition (nil for spatial)
	IsolatedIPC   []float64 // per-kernel isolated IPC (normalization base)
	TheoreticalWS float64   // sum of normalized isolated IPCs at the partition
}

// SpeedupsOf returns per-kernel normalized IPC.
func (w *WorkloadResult) SpeedupsOf() []float64 { return w.Speedups(w.IsolatedIPC) }

// WeightedSpeedup is the paper's primary metric.
func (w *WorkloadResult) WeightedSpeedup() float64 {
	return stats.WeightedSpeedup(w.SpeedupsOf())
}

// ANTT is the average normalized turnaround time (lower is better).
func (w *WorkloadResult) ANTT() float64 { return stats.ANTT(w.SpeedupsOf()) }

// Fairness is min/max normalized IPC (higher is better).
func (w *WorkloadResult) Fairness() float64 { return stats.Fairness(w.SpeedupsOf()) }
