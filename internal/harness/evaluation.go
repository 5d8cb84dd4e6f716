// The headline evaluation: Figure 12 (QBMI/DMIL on Warped-Slicer vs
// spatial multitasking), Figure 13 (on SMK), Figure 14 (3-kernel
// workloads), the Section 4.3 sensitivity studies and the design
// ablations DESIGN.md calls out. Each is a row of comparisons, keyed by
// its results/ file and printed by Compare; the energy study and the
// paper-vs-measured headlines run the same scheme sets.

package harness

import (
	"fmt"

	gcke "repro"
	"repro/internal/cache"
	"repro/internal/config"
)

// The Warped-Slicer schemes the figures, ablations and headlines share,
// each written once.
var (
	warpedSlicer = gcke.Scheme{Partition: gcke.PartitionWarpedSlicer}
	wsQBMI       = gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI}
	wsDMIL       = gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitDMIL}
)

// schemeSet is a labelled list of schemes compared side by side.
type schemeSet struct {
	labels  []string
	schemes []gcke.Scheme
}

// The scheme sets of Figures 12–14. The sensitivity rows and the energy
// study rerun Figure 12's; the headlines run all three.
var (
	fig12 = schemeSet{
		[]string{"Spatial", "WS", "WS-QBMI", "WS-DMIL"},
		[]gcke.Scheme{{Partition: gcke.PartitionSpatial}, warpedSlicer, wsQBMI, wsDMIL},
	}
	fig13 = schemeSet{
		[]string{"SMK-(P+W)", "SMK-(P+QBMI)", "SMK-(P+DMIL)"},
		[]gcke.Scheme{
			{Partition: gcke.PartitionSMK, SMKQuota: true},
			{Partition: gcke.PartitionSMK, MemIssue: gcke.MemIssueQBMI},
			{Partition: gcke.PartitionSMK, Limiting: gcke.LimitDMIL},
		},
	}
	fig14 = schemeSet{fig12.labels[1:], fig12.schemes[1:]}
)

// metric extracts one number from a result.
type metric struct {
	name string
	get  func(*gcke.WorkloadResult) float64
	// gmean selects geometric (speedup-like) vs arithmetic (rates).
	gmean bool
}

// metrics are the evaluation's metrics in print order; a comparison
// prints a prefix of them.
var metrics = []metric{
	{"WeightedSpeedup", (*gcke.WorkloadResult).WeightedSpeedup, true},
	{"ANTT", (*gcke.WorkloadResult).ANTT, true},
	{"Fairness", (*gcke.WorkloadResult).Fairness, true},
	{"L1DMissRate", func(r *gcke.WorkloadResult) float64 { return l1d(r).MissRate() }, false},
	{"L1DRsfailRate", func(r *gcke.WorkloadResult) float64 { return l1d(r).RsFailRate() }, false},
	{"LSUStallFrac", (*gcke.WorkloadResult).LSUStallFrac, false},
	{"ComputeUtil", (*gcke.WorkloadResult).ComputeUtil, false},
}

// l1d sums r's per-kernel L1D statistics.
func l1d(r *gcke.WorkloadResult) cache.KernelStats {
	var s cache.KernelStats
	for _, k := range r.Kernels {
		s.Accesses += k.L1D.Accesses
		s.Misses += k.L1D.Misses
		s.Merged += k.L1D.Merged
		s.RsFail += k.L1D.RsFail
	}
	return s
}

// comparison is one table Compare prints: every workload under every
// scheme of set, the first metrics of metrics by class, then weighted
// speedup per workload.
type comparison struct {
	title   string
	set     schemeSet
	metrics int
	// machine, when set, changes the harness's Config for this table
	// (a sensitivity study); the run lengths stay the harness's.
	machine func(*gcke.Config)
}

// sensitivity re-runs Figure 12's schemes, by weighted speedup and ANTT,
// on a machine that machine changes (Section 4.3).
func sensitivity(title string, machine func(*gcke.Config)) comparison {
	return comparison{"Sensitivity — " + title, fig12, 2, machine}
}

// comparisons is every table Compare prints, keyed by the results/ file
// it lands in; a key with several tables prints them in turn.
var comparisons = map[string][]comparison{
	"fig12": {{"Figure 12 — QBMI and DMIL on top of Warped-Slicer", fig12, len(metrics), nil}},
	// The paper reports WS and ANTT for SMK and for 3 kernels; these
	// tables stop after fairness.
	"fig13": {{"Figure 13 — QBMI and DMIL on top of SMK", fig13, 3, nil}},
	"fig14": {{"Figure 14 — 3-kernel concurrent execution on Warped-Slicer", fig14, 3, nil}},
	"sens-l1d": {
		sensitivity("L1D capacity 48KB", func(c *gcke.Config) { c.L1D.SizeBytes = 48 * 1024 }),
		sensitivity("L1D capacity 96KB", func(c *gcke.Config) { c.L1D.SizeBytes = 96 * 1024 }),
	},
	"sens-lrr":  {sensitivity("LRR warp scheduling", func(c *gcke.Config) { c.SM.Scheduler = config.LRR })},
	"sens-mshr": {sensitivity("256 L1D MSHRs", func(c *gcke.Config) { c.L1D.MSHRs = 256 })},
	// The paper's per-SM DMIL against one MILG set shared by all SMs.
	"abl-gdmil": {{"Ablation — local vs global DMIL", schemeSet{[]string{"WS-DMIL", "WS-gDMIL"},
		[]gcke.Scheme{wsDMIL, {Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitGlobalDMIL}}}, 2, nil}},
	// Bypassing a C+M pair's memory kernel's L1, with and without DMIL on
	// the bypassed stream: the paper argues bypassing alone moves the
	// congestion down the hierarchy and MIL stays effective on top.
	"abl-bypass": {{"Ablation — L1 bypassing for the memory-intensive kernel (Section 4.5)", schemeSet{
		[]string{"WS", "WS-Bypass", "WS-Byp+DMIL", "WS-DMIL"},
		[]gcke.Scheme{warpedSlicer, {Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}},
			{Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}, Limiting: gcke.LimitDMIL}, wsDMIL}}, 2, nil}},
	"abl-dynws": {{"Ablation — static vs online-profiled Warped-Slicer", schemeSet{[]string{"WS(static)", "WS(dynamic)"},
		[]gcke.Scheme{warpedSlicer, {Partition: gcke.PartitionWarpedSlicerDyn}}}, 3, nil}},
	// L1-signal DMIL against the L2/DRAM-signal variant, alone and under
	// bypassing, where the interference point moves below the L1.
	"abl-l2mil": {{"Ablation — L2/DRAM-congestion-driven MIL (Section 4.5 future work)", schemeSet{
		[]string{"WS", "WS-DMIL", "WS-L2MIL", "WS-Byp+L2MIL"},
		[]gcke.Scheme{warpedSlicer, wsDMIL, {Partition: gcke.PartitionWarpedSlicer, Limiting: gcke.LimitL2MIL},
			{Partition: gcke.PartitionWarpedSlicer, BypassL1: []bool{false, true}, Limiting: gcke.LimitL2MIL}}}, 2, nil}},
	// The paper's refresh-on-any-zero QBMI against SMK's refresh-on-all-zero.
	"abl-qbmi": {{"Ablation — QBMI quota refresh policy", schemeSet{[]string{"QBMI(any0)", "QBMI(all0)"},
		[]gcke.Scheme{wsQBMI, {Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI, QBMIRefreshAllZero: true}}}, 2, nil}},
	// TB-granularity throttling (related work) against MIL, whose finer
	// granularity the paper argues wins when the memory kernel holds few TBs.
	"abl-tbt": {{"Ablation — TB-granularity throttling vs memory instruction limiting", schemeSet{
		[]string{"WS", "WS-TBT", "WS-DMIL"},
		[]gcke.Scheme{warpedSlicer, {Partition: gcke.PartitionWarpedSlicer, TBThrottle: true}, wsDMIL}}, 3, nil}},
}

// Compare prints the comparison tables stored under name, the results/
// file they land in (fig12, fig13, fig14, sens-* and abl-*), for
// workloads. A sensitivity table runs on its changed machine, on h's
// runner, writer and context.
func (h *Harness) Compare(name string, workloads []Workload) error {
	cs, ok := comparisons[name]
	if !ok {
		return fmt.Errorf("harness: no comparison named %q", name)
	}
	for _, c := range cs {
		on := h
		if c.machine != nil {
			changed := *h
			c.machine(&changed.Config)
			on = &changed
		}
		if err := on.compare(c, workloads); err != nil {
			return err
		}
	}
	return nil
}

// compare runs every workload under every scheme as one grid and prints
// c's metrics by class, then weighted speedup per workload.
func (h *Harness) compare(c comparison, workloads []Workload) error {
	grid, err := h.RunAll(workloads, c.set.schemes)
	if err != nil {
		return err
	}
	h.printf("%s\n", c.title)
	for _, m := range metrics[:c.metrics] {
		h.printf("\n%s (%s by class)\n", m.name, map[bool]string{true: "gmean", false: "mean"}[m.gmean])
		h.printClasses(c.set.labels, byClass(workloads, grid, len(c.set.schemes), m.get), m.gmean)
	}
	h.printf("\nper-workload WeightedSpeedup\n")
	h.printWorkloads(c.set.labels, workloads, grid, metrics[0].get, " %13.3f")
	h.printf("\n")
	return nil
}

// byClass folds get of every result in grid, indexed [workload][scheme]
// over n schemes, into one classAgg per scheme.
func byClass(workloads []Workload, grid [][]*gcke.WorkloadResult, n int, get func(*gcke.WorkloadResult) float64) []*classAgg {
	aggs := make([]*classAgg, n)
	for j := range aggs {
		aggs[j] = newClassAgg()
	}
	for i, w := range workloads {
		for j := range aggs {
			aggs[j].add(w.Class, get(grid[i][j]))
		}
	}
	return aggs
}

// printClasses prints one column per label and one row per class of
// aggs, the classes' gmeans or means.
func (h *Harness) printClasses(labels []string, aggs []*classAgg, gmean bool) {
	h.printf("%-8s", "class")
	for _, l := range labels {
		h.printf(" %13s", l)
	}
	h.printf("\n")
	for _, c := range aggs[0].rows() {
		h.printf("%-8s", c)
		for _, a := range aggs {
			v := a.mean(c)
			if gmean {
				v = a.gmean(c)
			}
			h.printf(" %13.3f", v)
		}
		h.printf("\n")
	}
}

// printWorkloads prints one column per label and one row per workload of
// get, each value in format.
func (h *Harness) printWorkloads(labels []string, workloads []Workload, grid [][]*gcke.WorkloadResult, get func(*gcke.WorkloadResult) float64, format string) {
	h.printf("%-10s %-6s", "workload", "class")
	for _, l := range labels {
		h.printf(" %13s", l)
	}
	h.printf("\n")
	for i, w := range workloads {
		h.printf("%-10s %-6s", w.Label(), w.Class)
		for _, r := range grid[i] {
			h.printf(format, get(r))
		}
		h.printf("\n")
	}
}

// EnergyStudy reports the Section 4.5 energy-efficiency claim: higher
// utilization raises dynamic power but the reduced leakage per unit of
// work wins overall.
func (h *Harness) EnergyStudy(pairs []Workload) error {
	model := gcke.DefaultEnergyModel()
	eff := func(r *gcke.WorkloadResult) float64 { return r.InstrsPerMicroJoule(model) }
	grid, err := h.RunAll(pairs, fig12.schemes)
	if err != nil {
		return err
	}
	h.printf("Energy study (Section 4.5): instructions per microjoule, %v\n\n", "higher is better")
	h.printWorkloads(fig12.labels, pairs, grid, eff, " %13.1f")
	h.printf("\n%-10s %-6s", "gmean", "")
	for _, a := range byClass(pairs, grid, len(fig12.schemes), eff) {
		h.printf(" %13.1f", a.gmean("ALL"))
	}
	h.printf("\n")
	return nil
}
