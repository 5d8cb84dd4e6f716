package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// ledgerBounds holds the bounds of the end-to-end metrics that
// BENCHMARK.json has to list under per_layer, where the driver's schema
// allows no bound: all but the first are defined on one workload only,
// and the driver wants every end-to-end metric from every workload.
// -compare judges them like the end-to-end metrics. They are the issue's
// bounds except where a comment says otherwise. paper_headline_err_pp is
// exact and compares with ==; README.md says why peak_rss_mb has none.
var ledgerBounds = map[string]float64{
	"sim_kinstr_per_s":  0.20, // at one seed a fixed multiple of sim_kcycles_per_s: its bound
	"sweep_wall_s":      0.10,
	"serve_jobs_per_s":  0.10,
	"serve_miss_p50_ms": 0.10,
	"serve_miss_p95_ms": 0.25, // issue: 0.15; seven runs of one commit spread it by 19 %
	"serve_hit_p50_ms":  0.15, // issue: 0.10; seven runs of one commit spread it by 11 %
}

// compareLedgers prints one verdict per (workload, metric) of ledger b
// against ledger a. Bounded metrics are judged with their bound and the
// recorded runs' spread; exact metrics and sim_digest compare with ==;
// the other per-layer metrics have no bound and are listed with their
// change only. A metric only one of the ledgers holds is "changed".
func compareLedgers(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	if a.Host.NProc != b.Host.NProc || a.Host.CPUModel != b.Host.CPUModel {
		fmt.Fprintf(w, "warning: different hosts (%s x%d vs %s x%d); host-time verdicts mean little\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace != b.Trace || a.Smoke != b.Smoke {
		return fmt.Errorf("the ledgers were not run with the same seed, seconds, trace and size")
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tspread\tbound\tverdict")
	counts := make(map[string]int)
	for _, wa := range a.Workloads {
		var wb *ledgerWorkload
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		v := "same"
		if wa.SimDigest != wb.SimDigest {
			v = "changed"
		}
		counts[v]++
		fmt.Fprintf(tw, "%s\tsim_digest\t%.12s\t%.12s\t\t\t==\t%s\n", wa.Name, wa.SimDigest, wb.SimDigest, v)
		names := make(map[string]bool)
		for name := range wa.Metrics {
			names[name] = true
		}
		for name := range wb.Metrics {
			names[name] = true
		}
		for _, name := range sortedKeys(names) {
			ma, inA := wa.Metrics[name]
			mb, inB := wb.Metrics[name]
			ms, bounded, ok := spec.lookup(name)
			if !ok {
				continue
			}
			if b, ok := ledgerBounds[name]; ok {
				ms.Bound, bounded = b, true
			}
			if !inA || !inB {
				counts["changed"]++
				side := map[bool]string{true: "%.6g\tmissing", false: "missing\t%.6g"}[inA]
				fmt.Fprintf(tw, "%s\t%s\t"+side+"\t\t\t\tchanged\n", wa.Name, name, ma.Median+mb.Median)
				continue
			}
			v, change, spread := verdict(ms, bounded, ma, mb)
			counts[v]++
			bound := ""
			switch {
			case ma.Exact:
				bound = "=="
			case bounded:
				bound = fmt.Sprintf("%.0f%%", ms.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%s\t%s\n",
				wa.Name, name, ma.Median, mb.Median, change*100, spread*100, bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\nsame %d, better %d, worse %d, unresolved %d, changed %d, unbounded %d\n",
		counts["same"], counts["better"], counts["worse"], counts["unresolved"], counts["changed"], counts["-"])
	if counts["worse"]+counts["unresolved"]+counts["changed"] > 0 {
		return fmt.Errorf("the ledgers disagree")
	}
	return nil
}

// verdict judges b against a. change is (b-a)/a of the medians; spread
// is the wider of the two ledgers' quartile distance over the median, the
// statistic the PR driver applies to its own runs.
func verdict(ms metricSpec, bounded bool, a, b ledgerMetric) (v string, change, spread float64) {
	if a.Median != 0 {
		change = (b.Median - a.Median) / math.Abs(a.Median)
	}
	for _, m := range []ledgerMetric{a, b} {
		if q1, q3 := quartiles(m.Values); m.Median != 0 {
			spread = math.Max(spread, (q3-q1)/math.Abs(m.Median))
		}
	}
	worse := change
	if ms.Better == "higher" {
		worse = -change
	}
	switch {
	case a.Exact || b.Exact:
		// A simulated figure must not move at all under a change that
		// only makes the simulator faster.
		if a.Median == b.Median {
			return "same", change, spread
		}
		return "changed", change, spread
	case !bounded:
		return "-", change, spread
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case spread <= ms.Bound && worse > ms.Bound, !overlap && worse > ms.Bound:
		return "worse", change, spread
	case spread <= ms.Bound && -worse > ms.Bound, spread > ms.Bound && !overlap && worse < 0:
		// Past the bound, or too noisy to resolve the bound but every
		// run of b beats every run of a.
		return "better", change, spread
	case spread > ms.Bound:
		return "unresolved", change, spread
	}
	return "same", change, spread
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}
