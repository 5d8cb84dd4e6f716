package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// benchSpec is BENCHMARK.json: the one list of workload and metric
// names, units, directions and bounds. The code never repeats a unit or
// a bound; a metric recorded under a name the file does not list is an
// error, so the two cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory under `go run ./bench`, its parent under `go test ./bench`.
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// lookup returns a metric's spec and whether it is end-to-end.
func (s *benchSpec) lookup(name string) (metricSpec, bool, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return metricSpec{}, false, false
}

// metric is one reported number. N, Min and Max describe the samples
// behind Value (a median) inside one run; Exact marks simulated counts,
// which repeat bit for bit and compare with ==.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

// recorder collects the metrics of one run against the spec.
type recorder struct {
	spec   *benchSpec
	traced bool
	vals   map[string]metric
	err    error
}

func newRecorder(spec *benchSpec, traced bool) *recorder {
	return &recorder{spec: spec, traced: traced, vals: make(map[string]metric)}
}

func (r *recorder) put(name string, m metric) {
	ms, e2e, ok := r.spec.lookup(name)
	switch {
	case !ok:
		r.err = fmt.Errorf("metric %q is not listed in BENCHMARK.json", name)
	case e2e && r.traced:
		// End-to-end metrics are measured with tracing off only.
	default:
		if _, dup := r.vals[name]; dup {
			r.err = fmt.Errorf("metric %q recorded twice", name)
		}
		m.Unit = ms.Unit
		r.vals[name] = m
	}
}

// set records a single measured value.
func (r *recorder) set(name string, v float64) { r.put(name, metric{Value: v, N: 1, Min: v, Max: v}) }

// exact records a simulated count or a figure derived only from them.
func (r *recorder) exact(name string, v float64) { r.put(name, metric{Value: v, Exact: true}) }

// samples records the median of xs with its count and range.
func (r *recorder) samples(name string, xs []float64) {
	if len(xs) == 0 {
		r.err = fmt.Errorf("metric %q has no samples", name)
		return
	}
	lo, hi := minMax(xs)
	r.put(name, metric{Value: median(xs), N: len(xs), Min: lo, Max: hi})
}

// finish returns what the run recorded, and nothing it did not: a layer
// the workload never touches has no entry. An untraced run must hold every
// end-to-end metric; it may also hold the per-layer metrics that cost
// nothing extra, such as latencies.
func (r *recorder) finish() (map[string]metric, error) {
	if r.err != nil {
		return nil, r.err
	}
	if !r.traced {
		for _, ms := range r.spec.EndToEnd {
			if _, ok := r.vals[ms.Name]; !ok {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", ms.Name)
			}
		}
	}
	for name, m := range r.vals {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %q is %v", name, m.Value)
		}
	}
	return r.vals, nil
}

// check is one correctness check the run made on the program's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one workload run reports. The driver sees only
// the last line printDriverLine writes; the ledger reads the rest from
// the -detail file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Inputs    any               `json:"inputs"`
	SimDigest string            `json:"sim_digest"`
	Checks    []check           `json:"checks"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []spanStat        `json:"spans,omitempty"`
}

// printDriverLine writes the one line the PR driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one, and nothing else. The driver wants every listed name on
// every workload's line, so a per-layer metric this workload did not
// record reads 0 there; the ledger omits it instead.
func (r *result) printDriverLine(w io.Writer, spec *benchSpec) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	for _, ms := range want {
		line.Metrics[ms.Name] = mv{r.Metrics[ms.Name].Value, ms.Unit}
	}
	for _, ck := range r.Checks {
		if !ck.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check %q failed: %s\n", r.Workload, ck.Name, ck.Detail)
		}
	}
	return json.NewEncoder(w).Encode(line)
}

// ledger is the committed form: host, seed and, per workload, every
// metric's median over the child runs with their range.
type ledger struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke,omitempty"`
	Runs      int              `json:"runs"`
	Workloads []ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Name      string                  `json:"name"`
	Inputs    any                     `json:"inputs"`
	SimDigest string                  `json:"sim_digest"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Checks    []check                 `json:"checks"`
	Notes     []string                `json:"notes,omitempty"`
	Metrics   map[string]ledgerMetric `json:"metrics"`
	Spans     []spanStat              `json:"spans,omitempty"`
}

// ledgerMetric summarises one metric over the child runs.
type ledgerMetric struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Exact  bool      `json:"exact,omitempty"`
	Values []float64 `json:"values"`
}

// mergeRuns folds the child runs of one workload into a ledger row. The
// simulator is deterministic, so every run must agree on sim_digest and
// on every exact metric.
func mergeRuns(rs []*result) (ledgerWorkload, error) {
	first := rs[0]
	lw := ledgerWorkload{
		Name: first.Workload, Inputs: first.Inputs, SimDigest: first.SimDigest,
		Checks: first.Checks, Notes: first.Notes, Spans: first.Spans,
		Metrics: make(map[string]ledgerMetric, len(first.Metrics)),
	}
	for _, r := range rs {
		lw.Attempted += r.Attempted
		lw.Failed += r.Failed
		if r.SimDigest != first.SimDigest {
			return lw, fmt.Errorf("sim_digest differs between runs of one seed: %s vs %s", first.SimDigest, r.SimDigest)
		}
	}
	for name, m := range first.Metrics {
		lm := ledgerMetric{Unit: m.Unit, Exact: m.Exact}
		for _, r := range rs {
			rm, ok := r.Metrics[name]
			if !ok || len(r.Metrics) != len(first.Metrics) {
				return lw, fmt.Errorf("the runs did not record the same metrics (%s)", name)
			}
			v := rm.Value
			if m.Exact && v != m.Value {
				return lw, fmt.Errorf("exact metric %s differs between runs: %v vs %v", name, m.Value, v)
			}
			lm.Values = append(lm.Values, v)
		}
		lm.N = len(lm.Values)
		lm.Median = median(lm.Values)
		lm.Min, lm.Max = minMax(lm.Values)
		lw.Metrics[name] = lm
	}
	return lw, nil
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "host: %s, nproc=%d GOMAXPROCS=%d, %s %s, commit %s, load %.2f\n",
		l.Host.CPUModel, l.Host.NProc, l.Host.GOMAXPROCS, l.Host.GoVersion, l.Host.OSArch, l.Host.Commit, l.Host.LoadAvg1)
	fmt.Fprintf(w, "seed=%d seconds=%d trace=%v runs=%d\n", l.Seed, l.Seconds, l.Trace, l.Runs)
	for _, lw := range l.Workloads {
		fmt.Fprintf(w, "\n%s  ops=%d failed=%d  sim_digest=%s\n", lw.Name, lw.Attempted, lw.Failed, lw.SimDigest)
		for _, n := range lw.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tunit\tn\tmedian\tmin\tmax")
		for _, name := range sortedKeys(lw.Metrics) {
			m := lw.Metrics[name]
			fmt.Fprintf(tw, "  %s\t%s\t%d\t%.6g\t%.6g\t%.6g\n", name, m.Unit, m.N, m.Median, m.Min, m.Max)
		}
		tw.Flush()
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// perSecond turns the wall times of equal pieces of work into rates.
func perSecond(work float64, walls []float64) []float64 {
	out := make([]float64, len(walls))
	for i, w := range walls {
		out[i] = work / w
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// topPercentile is the highest percentile of n samples, at most limit,
// that still has at least ten samples beyond it.
func topPercentile(n int, limit float64) float64 {
	return math.Max(0.5, math.Min(1-10/float64(n), limit))
}

// sameJSON reports whether a and b marshal to the same bytes.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
