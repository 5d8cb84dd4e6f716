package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at the smoke size, untraced and traced,
// with every correctness check on. It keeps the benchmark compiling
// against the packages' APIs and pins the contract with BENCHMARK.json:
// each run's result line carries exactly the metrics the file lists for
// its kind, once each, with a well-formed name and a unit, every workload
// records every end-to-end metric and some workload records each
// per-layer one.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := make(map[string]bool)
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(ms.Name) || ms.Unit == "" {
			t.Errorf("BENCHMARK.json: metric %q (unit %q) is malformed", ms.Name, ms.Unit)
		}
		if seen[ms.Name] {
			t.Errorf("BENCHMARK.json lists %q twice", ms.Name)
		}
		seen[ms.Name] = true
	}
	recorded := make(map[string]bool)
	for _, w := range spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{Seed: 1, Seconds: 1, Trace: traced, Smoke: true, Workdir: t.TempDir()}
			res, err := runWorkload(spec, w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			for _, ck := range res.Checks {
				if !ck.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w, traced, ck.Name, ck.Detail)
				}
			}
			for name := range res.Metrics {
				recorded[name] = true
			}
			if len(res.Checks) == 0 || res.Failed != 0 || res.Attempted < 1 || res.SimDigest == "" {
				t.Errorf("%s trace=%v: checks=%d attempted=%d failed=%d digest=%q",
					w, traced, len(res.Checks), res.Attempted, res.Failed, res.SimDigest)
			}

			// The driver's view: the last line of standard output.
			var buf bytes.Buffer
			if err := res.printDriverLine(&buf, spec); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(&buf)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w, traced, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s trace=%v: result line lacks correct/attempted/failed", w, traced)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(line.Metrics), len(want))
			}
			for _, ms := range want {
				m, ok := line.Metrics[ms.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace=%v: metric %s is missing", w, traced, ms.Name)
				case m.Unit != ms.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, traced, ms.Name, m.Unit, ms.Unit)
				case !traced && *m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, ms.Name, *m.Value)
				}
				if _, ok := res.Metrics[ms.Name]; !traced && !ok {
					t.Errorf("%s: end-to-end metric %s was not recorded", w, ms.Name)
				}
			}
		}
	}
	for _, ms := range spec.PerLayer {
		if !recorded[ms.Name] {
			t.Errorf("no workload records the per-layer metric %s", ms.Name)
		}
	}
}

// TestVerdict pins -compare's rule on its outcomes.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "t", Better: "lower", Bound: 0.10}
	of := func(xs ...float64) ledgerMetric {
		lo, hi := minMax(xs)
		return ledgerMetric{Median: median(xs), Min: lo, Max: hi, Values: xs}
	}
	for _, tc := range []struct {
		name string
		a, b ledgerMetric
		want string
	}{
		{"within the bound", of(98, 99, 100, 101, 102), of(101, 102, 103, 104, 105), "same"},
		{"past the bound", of(98, 99, 100, 101, 102), of(118, 119, 120, 121, 122), "worse"},
		{"every run better and past the bound", of(98, 99, 100, 101, 102), of(80, 81, 82, 83, 84), "better"},
		{"every run better but within the bound", of(98, 99, 100, 101, 102), of(93, 94, 95, 96, 97), "same"},
		{"one slow outlier does not widen the spread", of(98, 99, 100, 101, 102, 103, 140), of(99, 100, 101, 102, 103, 104, 105), "same"},
		{"spread wider than the bound, overlapping", of(85, 90, 100, 110, 115), of(95, 100, 108, 115, 120), "unresolved"},
		{"spread wider than the bound, every run better", of(85, 90, 100, 110, 115), of(60, 70, 75, 80, 84), "better"},
		{"exact and equal", ledgerMetric{Median: 7, Exact: true, Values: []float64{7}}, ledgerMetric{Median: 7, Exact: true, Values: []float64{7}}, "same"},
		{"exact and different", ledgerMetric{Median: 7, Exact: true, Values: []float64{7}}, ledgerMetric{Median: 8, Exact: true, Values: []float64{8}}, "changed"},
	} {
		if got, _, _ := verdict(lower, true, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// The quartiles are Python's statistics.quantiles(n=4).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
