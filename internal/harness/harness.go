// Package harness drives the paper's experiments: it owns the workload
// pair/triple sets, caches simulation results across figures, and
// renders the text tables that stand in for each figure and table of
// the evaluation (see DESIGN.md's experiment index). Figures 12–14 and
// every sensitivity and ablation table are rows of one comparison table,
// printed by Compare; PaperComparison measures the headlines on the same
// scheme sets.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	gcke "repro"
	"repro/internal/kern"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Workload is a named kernel combination with its class label
// (C+C, C+M, M+M, or the 3-kernel variants).
type Workload struct {
	Names []string
	Class string
}

// Label renders "bp+sv".
func (w Workload) Label() string { return strings.Join(w.Names, "+") }

// classOf derives the class label (by the paper's Table 2 typing).
func classOf(names []string) string {
	parts := make([]string, len(names))
	for i, n := range names {
		d, err := kern.ByName(n)
		if err != nil {
			parts[i] = "?"
			continue
		}
		parts[i] = d.Class.String()
	}
	sort.Strings(parts) // C before M
	return strings.Join(parts, "+")
}

// NewWorkload builds a workload from kernel names.
func NewWorkload(names ...string) Workload {
	return Workload{Names: names, Class: classOf(names)}
}

// DefaultPairs is the 2-kernel workload set: the six pairs the paper
// examines closely plus further combinations covering every class.
func DefaultPairs() []Workload {
	pairs := [][]string{
		// The paper's selected two per class (Sections 3.1-3.4).
		{"pf", "bp"}, {"bp", "hs"}, // C+C
		{"bp", "sv"}, {"bp", "ks"}, // C+M
		{"sv", "ks"}, {"sv", "ax"}, // M+M
		// Additional coverage.
		{"cp", "dc"}, {"bs", "st"}, // C+C
		{"hs", "3m"}, {"st", "s2"}, {"cp", "cd"}, {"pf", "ax"}, // C+M
		{"3m", "s2"}, {"cd", "ks"}, // M+M
	}
	out := make([]Workload, len(pairs))
	for i, p := range pairs {
		out[i] = NewWorkload(p...)
	}
	return out
}

// AllPairs enumerates every 2-combination of the thirteen benchmarks
// (78 workloads, the paper's full sweep).
func AllPairs() []Workload {
	names := kern.Names()
	var out []Workload
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			out = append(out, NewWorkload(names[i], names[j]))
		}
	}
	return out
}

// DefaultTriples is the 3-kernel workload set (Section 4.2), one or two
// per class.
func DefaultTriples() []Workload {
	triples := [][]string{
		{"pf", "bp", "dc"}, // C+C+C
		{"bp", "hs", "sv"}, // C+C+M
		{"bp", "sv", "ks"}, // C+M+M
		{"sv", "ks", "s2"}, // M+M+M
		{"cp", "st", "cd"}, // C+C+M
		{"pf", "3m", "ax"}, // C+M+M
	}
	out := make([]Workload, len(triples))
	for i, tr := range triples {
		out[i] = NewWorkload(tr...)
	}
	return out
}

// Harness renders experiments on one machine. Every workload run is a
// runner.Job on the harness's Runner, and every isolated profile runs on
// that Runner's session for the machine; because the engine is
// deterministic and results come back in submission order, the tables
// are byte-identical to a serial run.
type Harness struct {
	// Config, Cycles and ProfileCycles describe the machine, as on a
	// runner.Job (ProfileCycles of 0 means Cycles).
	Config        gcke.Config
	Cycles        int64
	ProfileCycles int64
	Out           io.Writer
	// Ctx, when non-nil, threads cancellation and deadlines into every
	// simulation the harness starts (nil means context.Background()).
	Ctx context.Context
	// Runner executes the harness's simulations: its pool bounds
	// experiment grids and the per-benchmark fan-outs, and its result
	// store serves a point already simulated and, when durable,
	// records every completed point so a restarted run replays it.
	// Harnesses sharing a Runner share points.
	Runner *runner.Runner
}

// New creates a harness for the machine writing its tables to out, on a
// runner from NewRunner(0).
func New(cfg gcke.Config, cycles, profileCycles int64, out io.Writer) *Harness {
	return &Harness{Config: cfg, Cycles: cycles, ProfileCycles: profileCycles, Out: out, Runner: NewRunner(0)}
}

// NewRunner returns a runner with the given pool size (0 = GOMAXPROCS,
// 1 = strictly serial) and a memory-only result store, so a point one
// figure simulated is served to the next.
func NewRunner(workers int) *runner.Runner {
	r := runner.New(workers)
	r.Cache, _ = resultcache.Open(resultcache.Options{}) // memory-only: cannot fail
	return r
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.Out, format, args...)
}

func (h *Harness) ctx() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// session is the runner's session for the harness's machine: the one the
// harness's jobs run on, so a profile measured here is theirs too.
func (h *Harness) session() (*gcke.Session, error) {
	return h.Runner.Session(h.Config, h.Cycles, h.ProfileCycles)
}

// kernels resolves a workload's descriptors.
func (h *Harness) kernels(w Workload) ([]gcke.Kernel, error) {
	out := make([]gcke.Kernel, len(w.Names))
	for i, n := range w.Names {
		d, err := gcke.Benchmark(n)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Run simulates workload w under scheme: RunAll of one job.
func (h *Harness) Run(w Workload, scheme gcke.Scheme) (*gcke.WorkloadResult, error) {
	res, err := h.RunAll([]Workload{w}, []gcke.Scheme{scheme})
	if err != nil {
		return nil, err
	}
	return res[0][0], nil
}

// RunAll runs every workload under every scheme as one runner.Run call
// and returns results indexed [workload][scheme]. The first error (in
// grid order) aborts with a nil matrix.
func (h *Harness) RunAll(workloads []Workload, schemes []gcke.Scheme) ([][]*gcke.WorkloadResult, error) {
	jobs := make([]runner.Job, 0, len(workloads)*len(schemes))
	for _, w := range workloads {
		ds, err := h.kernels(w)
		if err != nil {
			return nil, err
		}
		for _, sc := range schemes {
			jobs = append(jobs, runner.Job{Config: h.Config, Cycles: h.Cycles, ProfileCycles: h.ProfileCycles,
				Kernels: ds, Scheme: sc})
		}
	}
	res := h.Runner.Run(h.ctx(), jobs)
	results := make([][]*gcke.WorkloadResult, len(workloads))
	for i, w := range workloads {
		results[i] = make([]*gcke.WorkloadResult, len(schemes))
		for j, sc := range schemes {
			r := res[i*len(schemes)+j]
			if r.Err != nil {
				return nil, fmt.Errorf("%s under %s: %w", w.Label(), sc.Name(), r.Err)
			}
			results[i][j] = r.Res
		}
	}
	return results, nil
}

// classAverages groups per-workload values by class and appends an ALL
// row; classes are ordered C-first.
type classAgg struct {
	order []string
	vals  map[string][]float64
}

func newClassAgg() *classAgg {
	return &classAgg{vals: make(map[string][]float64)}
}

func (a *classAgg) add(class string, v float64) {
	if _, ok := a.vals[class]; !ok {
		a.order = append(a.order, class)
		sort.Strings(a.order)
	}
	a.vals[class] = append(a.vals[class], v)
	a.vals["ALL"] = append(a.vals["ALL"], v)
}

func (a *classAgg) rows() []string {
	return append(append([]string(nil), a.order...), "ALL")
}

func (a *classAgg) gmean(class string) float64 { return stats.GMean(a.vals[class]) }
func (a *classAgg) mean(class string) float64  { return stats.Mean(a.vals[class]) }
