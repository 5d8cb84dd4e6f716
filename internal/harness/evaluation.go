// The headline evaluation: Figure 12 (QBMI/DMIL on Warped-Slicer vs
// spatial multitasking), Figure 13 (on SMK), Figure 14 (3-kernel
// workloads), the Section 4.3 sensitivity studies and the design
// ablations DESIGN.md calls out.

package harness

import (
	"strconv"

	gcke "repro"
	"repro/internal/config"
)

// schemeSet is a labelled list of schemes compared side by side.
type schemeSet struct {
	labels  []string
	schemes []gcke.Scheme
}

func wsSchemes() schemeSet {
	return schemeSet{
		labels: []string{"Spatial", "WS", "WS-QBMI", "WS-DMIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionSpatial},
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		},
	}
}

func smkSchemes() schemeSet {
	return schemeSet{
		labels: []string{"SMK-(P+W)", "SMK-(P+QBMI)", "SMK-(P+DMIL)"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionSMK, SMKQuota: true},
			{Partition: gcke.PartitionSMK, MemIssue: gcke.MemIssueQBMI},
			{Partition: gcke.PartitionSMK, Limiting: gcke.LimitDMIL},
		},
	}
}

// metric extracts one number from a result.
type metric struct {
	name string
	get  func(*gcke.WorkloadResult) float64
	// gmean selects geometric (speedup-like) vs arithmetic (rates).
	gmean bool
}

func evaluationMetrics() []metric {
	return []metric{
		{"WeightedSpeedup", func(r *gcke.WorkloadResult) float64 { return r.WeightedSpeedup() }, true},
		{"ANTT", func(r *gcke.WorkloadResult) float64 { return r.ANTT() }, true},
		{"Fairness", func(r *gcke.WorkloadResult) float64 { return r.Fairness() }, true},
		{"L1DMissRate", func(r *gcke.WorkloadResult) float64 {
			var acc, miss float64
			for _, k := range r.Kernels {
				acc += float64(k.L1D.Accesses)
				miss += float64(k.L1D.Misses - k.L1D.Merged)
			}
			if acc == 0 {
				return 0
			}
			return miss / acc
		}, false},
		{"L1DRsfailRate", func(r *gcke.WorkloadResult) float64 {
			var acc, rsf float64
			for _, k := range r.Kernels {
				acc += float64(k.L1D.Accesses)
				rsf += float64(k.L1D.RsFail)
			}
			if acc == 0 {
				return 0
			}
			return rsf / acc
		}, false},
		{"LSUStallFrac", func(r *gcke.WorkloadResult) float64 { return r.LSUStallFrac() }, false},
		{"ComputeUtil", func(r *gcke.WorkloadResult) float64 { return r.ComputeUtil() }, false},
	}
}

// compare runs every workload under every scheme (fanned out over the
// harness's worker pool) and prints one block per metric with
// class-aggregated rows.
func (h *Harness) compare(title string, workloads []Workload, set schemeSet, metrics []metric) error {
	// results[workload][scheme]
	results, err := h.RunAll(workloads, set.schemes)
	if err != nil {
		return err
	}
	h.printf("%s\n", title)
	for _, m := range metrics {
		aggs := make([]*classAgg, len(set.schemes))
		for j := range aggs {
			aggs[j] = newClassAgg()
		}
		for i, w := range workloads {
			for j := range set.schemes {
				aggs[j].add(w.Class, m.get(results[i][j]))
			}
		}
		h.printf("\n%s (%s by class)\n%-8s", m.name, map[bool]string{true: "gmean", false: "mean"}[m.gmean], "class")
		for _, l := range set.labels {
			h.printf(" %13s", l)
		}
		h.printf("\n")
		for _, c := range aggs[0].rows() {
			h.printf("%-8s", c)
			for j := range set.schemes {
				v := aggs[j].mean(c)
				if m.gmean {
					v = aggs[j].gmean(c)
				}
				h.printf(" %13.3f", v)
			}
			h.printf("\n")
		}
	}
	// Per-workload weighted speedup detail.
	h.printf("\nper-workload WeightedSpeedup\n%-10s %-6s", "workload", "class")
	for _, l := range set.labels {
		h.printf(" %13s", l)
	}
	h.printf("\n")
	for i, w := range workloads {
		h.printf("%-10s %-6s", w.Label(), w.Class)
		for j := range set.schemes {
			h.printf(" %13.3f", results[i][j].WeightedSpeedup())
		}
		h.printf("\n")
	}
	h.printf("\n")
	return nil
}

// Figure12 is the headline comparison on Warped-Slicer.
func (h *Harness) Figure12(pairs []Workload) error {
	return h.compare("Figure 12 — QBMI and DMIL on top of Warped-Slicer",
		pairs, wsSchemes(), evaluationMetrics())
}

// Figure13 is the comparison on SMK.
func (h *Harness) Figure13(pairs []Workload) error {
	return h.compare("Figure 13 — QBMI and DMIL on top of SMK",
		pairs, smkSchemes(),
		evaluationMetrics()[:3]) // the paper reports WS and ANTT for SMK
}

// Figure14 is the 3-kernel study.
func (h *Harness) Figure14(triples []Workload) error {
	set := schemeSet{
		labels: []string{"WS", "WS-QBMI", "WS-DMIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		},
	}
	return h.compare("Figure 14 — 3-kernel concurrent execution on Warped-Slicer",
		triples, set, evaluationMetrics()[:3])
}

// on returns a harness for another machine that writes to, cancels with
// and runs on h's writer, context and runner.
func (h *Harness) on(cfg gcke.Config, cycles, profileCycles int64) (*Harness, error) {
	s, err := h.Runner.Session(cfg, cycles, profileCycles)
	if err != nil {
		return nil, err
	}
	return &Harness{S: s, Out: h.Out, Ctx: h.Ctx, Runner: h.Runner}, nil
}

// SensitivityL1D re-runs the core comparison with 48KB and 96KB L1Ds
// (Section 4.3), on sessions for the changed architecture.
func SensitivityL1D(base gcke.Config, cycles int64, profileCycles int64, pairs []Workload, out *Harness) error {
	for _, size := range []int{48 * 1024, 96 * 1024} {
		cfg := base
		cfg.L1D.SizeBytes = size
		h, err := out.on(cfg, cycles, profileCycles)
		if err != nil {
			return err
		}
		title := "Sensitivity — L1D capacity " + strconv.Itoa(size/1024) + "KB"
		if err := h.compare(title, pairs, wsSchemes(), evaluationMetrics()[:2]); err != nil {
			return err
		}
	}
	return nil
}

// SensitivityLRR re-runs the core comparison under loose round-robin
// warp scheduling (Section 4.3).
func SensitivityLRR(base gcke.Config, cycles int64, profileCycles int64, pairs []Workload, out *Harness) error {
	cfg := base
	cfg.SM.Scheduler = config.LRR
	h, err := out.on(cfg, cycles, profileCycles)
	if err != nil {
		return err
	}
	return h.compare("Sensitivity — LRR warp scheduling", pairs, wsSchemes(), evaluationMetrics()[:2])
}

// AblationGlobalDMIL compares the paper's local (per-SM) DMIL with a
// global variant sharing one MILG set across SMs.
func (h *Harness) AblationGlobalDMIL(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"WS-DMIL", "WS-gDMIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitGlobalDMIL},
		},
	}
	return h.compare("Ablation — local vs global DMIL", pairs, set, evaluationMetrics()[:2])
}

// AblationMSHR checks that the schemes stay effective with larger MSHR
// files (Section 4.3's claim).
func AblationMSHR(base gcke.Config, cycles int64, profileCycles int64, pairs []Workload, out *Harness) error {
	cfg := base
	cfg.L1D.MSHRs = 256
	h, err := out.on(cfg, cycles, profileCycles)
	if err != nil {
		return err
	}
	return h.compare("Sensitivity — 256 L1D MSHRs", pairs, wsSchemes(), evaluationMetrics()[:2])
}

// AblationBypass studies the Section 4.5 interplay: bypassing the L1
// for the memory-intensive kernel of a C+M pair, with and without DMIL
// constraining the bypassed stream. The paper argues uncontrolled
// bypassing just moves the congestion down the hierarchy, and that MIL
// remains effective on top.
func (h *Harness) AblationBypass(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"WS", "WS-Bypass", "WS-Byp+DMIL", "WS-DMIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}},
			{Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}, Limiting: gcke.LimitDMIL},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		},
	}
	return h.compare("Ablation — L1 bypassing for the memory-intensive kernel (Section 4.5)",
		pairs, set, evaluationMetrics()[:2])
}

// AblationDynWS compares statically-profiled Warped-Slicer with the
// paper's online-profiled dynamic variant.
func (h *Harness) AblationDynWS(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"WS(static)", "WS(dynamic)"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicerDyn},
		},
	}
	return h.compare("Ablation — static vs online-profiled Warped-Slicer",
		pairs, set, evaluationMetrics()[:3])
}

// AblationL2MIL compares L1-signal DMIL with the L2/DRAM-signal variant
// (Section 4.5 future work), alone and under cache bypassing where the
// interference point moves below the L1.
func (h *Harness) AblationL2MIL(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"WS", "WS-DMIL", "WS-L2MIL", "WS-Byp+L2MIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitL2MIL},
			{Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}, Limiting: gcke.LimitL2MIL},
		},
	}
	return h.compare("Ablation — L2/DRAM-congestion-driven MIL (Section 4.5 future work)",
		pairs, set, evaluationMetrics()[:2])
}

// EnergyStudy reports the Section 4.5 energy-efficiency claim: higher
// utilization raises dynamic power but the reduced leakage per unit of
// work wins overall.
func (h *Harness) EnergyStudy(pairs []Workload) error {
	model := gcke.DefaultEnergyModel()
	set := wsSchemes()
	results, err := h.RunAll(pairs, set.schemes)
	if err != nil {
		return err
	}
	h.printf("Energy study (Section 4.5): instructions per microjoule, %v\n\n", "higher is better")
	h.printf("%-10s %-6s", "workload", "class")
	for _, l := range set.labels {
		h.printf(" %13s", l)
	}
	h.printf("\n")
	aggs := make([]*classAgg, len(set.schemes))
	for j := range aggs {
		aggs[j] = newClassAgg()
	}
	for i, w := range pairs {
		h.printf("%-10s %-6s", w.Label(), w.Class)
		for j := range set.schemes {
			eff := results[i][j].InstrsPerMicroJoule(model)
			aggs[j].add(w.Class, eff)
			h.printf(" %13.1f", eff)
		}
		h.printf("\n")
	}
	h.printf("\n%-10s %-6s", "gmean", "")
	for j := range set.schemes {
		h.printf(" %13.1f", aggs[j].gmean("ALL"))
	}
	h.printf("\n")
	return nil
}

// AblationQBMIRefresh compares the paper's refresh-on-any-zero QBMI
// with an SMK-style refresh-on-all-zero variant.
func (h *Harness) AblationQBMIRefresh(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"QBMI(any0)", "QBMI(all0)"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI},
			{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI, QBMIRefreshAllZero: true},
		},
	}
	return h.compare("Ablation — QBMI quota refresh policy", pairs, set, evaluationMetrics()[:2])
}

// AblationTBThrottle compares TB-granularity dynamic throttling (the
// related-work approach) with the paper's in-flight access limiting:
// the paper argues MIL's finer granularity wins, especially when the
// memory-intensive kernel holds few TBs.
func (h *Harness) AblationTBThrottle(pairs []Workload) error {
	set := schemeSet{
		labels: []string{"WS", "WS-TBT", "WS-DMIL"},
		schemes: []gcke.Scheme{
			{Partition: gcke.PartitionWarpedSlicer},
			{Partition: gcke.PartitionWarpedSlicer, TBThrottle: true},
			{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL},
		},
	}
	return h.compare("Ablation — TB-granularity throttling vs memory instruction limiting",
		pairs, set, evaluationMetrics()[:3])
}
