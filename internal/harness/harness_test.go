package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	gcke "repro"
	"repro/internal/journal"
)

func tinyHarness(t *testing.T) (*Harness, *bytes.Buffer) {
	t.Helper()
	s := gcke.NewSession(gcke.ScaledConfig(2), 15_000)
	s.ProfileCycles = 10_000
	var buf bytes.Buffer
	return New(s, &buf), &buf
}

func tinyPairs() []Workload {
	return []Workload{NewWorkload("pf", "bp"), NewWorkload("bp", "sv")}
}

func TestWorkloadLabelsAndClasses(t *testing.T) {
	w := NewWorkload("bp", "sv")
	if w.Label() != "bp+sv" {
		t.Fatalf("label = %q", w.Label())
	}
	if w.Class != "C+M" {
		t.Fatalf("class = %q, want C+M", w.Class)
	}
	if c := NewWorkload("sv", "ks").Class; c != "M+M" {
		t.Fatalf("class = %q, want M+M", c)
	}
	if c := NewWorkload("pf", "bp").Class; c != "C+C" {
		t.Fatalf("class = %q, want C+C", c)
	}
	if c := NewWorkload("sv", "bp").Class; c != "C+M" {
		t.Fatalf("class order must normalize, got %q", c)
	}
	if c := NewWorkload("bp", "sv", "ks").Class; c != "C+M+M" {
		t.Fatalf("triple class = %q", c)
	}
}

func TestDefaultPairSets(t *testing.T) {
	pairs := DefaultPairs()
	if len(pairs) < 12 {
		t.Fatalf("default pair set too small: %d", len(pairs))
	}
	classes := map[string]int{}
	for _, w := range pairs {
		classes[w.Class]++
	}
	for _, c := range []string{"C+C", "C+M", "M+M"} {
		if classes[c] < 2 {
			t.Errorf("class %s has only %d pairs", c, classes[c])
		}
	}
	if got := len(AllPairs()); got != 78 {
		t.Fatalf("AllPairs = %d, want 78 (13 choose 2)", got)
	}
	if len(DefaultTriples()) < 4 {
		t.Fatal("need at least one triple per class")
	}
}

// mustJSON is a result's bytes, the form the runner caches and journals.
func mustJSON(t *testing.T, r *gcke.WorkloadResult) []byte {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunMemoizes: a second Run of the same point is served from the
// runner's result cache without simulating, with the same bytes; a
// different scheme is a different point.
func TestRunMemoizes(t *testing.T) {
	h, _ := tinyHarness(t)
	w := NewWorkload("bp", "sv")
	sc := gcke.Scheme{Partition: gcke.PartitionEven}
	r1, err := h.Run(w, sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(w, sc)
	if err != nil {
		t.Fatal(err)
	}
	if hits := h.Runner.Cache.Stats().Hits; hits != 1 {
		t.Fatalf("second Run: %d cache hits, want 1 (served without simulating)", hits)
	}
	if !bytes.Equal(mustJSON(t, r1), mustJSON(t, r2)) {
		t.Fatal("memoized result differs from the simulated one")
	}
	r3, err := h.Run(w, gcke.Scheme{Partition: gcke.PartitionLeftover})
	if err != nil {
		t.Fatal(err)
	}
	if h.Runner.Cache.Len() != 2 || bytes.Equal(mustJSON(t, r3), mustJSON(t, r1)) {
		t.Fatal("cache key ignores the scheme")
	}
}

// TestRunKeysOnTheWholeScheme: points that differ only in a scheme field
// the harness once left out of its memo key (ManualTBs, Warmup) are
// distinct runs with their own results.
func TestRunKeysOnTheWholeScheme(t *testing.T) {
	h, _ := tinyHarness(t)
	w := NewWorkload("bp", "sv")
	a, err := h.Run(w, gcke.Scheme{Partition: gcke.PartitionManual, ManualTBs: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(w, gcke.Scheme{Partition: gcke.PartitionManual, ManualTBs: []int{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.TBPartition, b.TBPartition) {
		t.Fatalf("ManualTBs [1 1] and [3 1] share partition %v", a.TBPartition)
	}
	cold, err := h.Run(w, gcke.Scheme{Partition: gcke.PartitionEven})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := h.Run(w, gcke.Scheme{Partition: gcke.PartitionEven, Warmup: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if hits := h.Runner.Cache.Stats().Hits; hits != 0 {
		t.Fatalf("%d of four distinct points served from the cache", hits)
	}
	if bytes.Equal(mustJSON(t, cold), mustJSON(t, warm)) {
		t.Fatal("Warmup 5000 returned the Warmup 0 result")
	}
}

// TestDerivedSessionStudiesUseTheCallersRunner: the studies that build
// their own machine run on the caller's runner and context, so they
// journal their points and stop on cancellation.
func TestDerivedSessionStudiesUseTheCallersRunner(t *testing.T) {
	pairs := tinyPairs()[1:]
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "sens.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	h, _ := tinyHarness(t)
	h.Runner.Journal = jnl
	if err := h.Compare("sens-lrr", pairs); err != nil {
		t.Fatal(err)
	}
	if want := len(pairs) * len(fig12.schemes); jnl.Len() != want {
		t.Fatalf("SensitivityLRR journaled %d points, want %d", jnl.Len(), want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, _ = tinyHarness(t)
	h.Ctx = ctx
	if err := h.Compare("sens-lrr", pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SensitivityLRR returned %v, want context.Canceled", err)
	}
	if n := h.Runner.Cache.Len(); n != 0 {
		t.Fatalf("cancelled SensitivityLRR completed %d points", n)
	}
}

func TestTable2Rows(t *testing.T) {
	h, buf := tinyHarness(t)
	rows, err := h.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.IPC <= 0 {
			t.Errorf("%s: no progress", r.Name)
		}
		if r.L1DMissRate < 0 || r.L1DMissRate > 1 {
			t.Errorf("%s: miss rate %v", r.Name, r.L1DMissRate)
		}
	}
	if err := h.PrintTable2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Figure 2") {
		t.Fatal("render missing headers")
	}
}

func TestFigure4GapExists(t *testing.T) {
	h, _ := tinyHarness(t)
	rows, err := h.Figure4(tinyPairs())
	if err != nil {
		t.Fatal(err)
	}
	var all *Figure4Row
	for i := range rows {
		if rows[i].Class == "ALL" {
			all = &rows[i]
		}
	}
	if all == nil {
		t.Fatal("no ALL row")
	}
	if all.Achieved >= all.Theoretical {
		t.Fatalf("achieved (%v) must fall short of theoretical (%v)", all.Achieved, all.Theoretical)
	}
}

func TestFigure5Runs(t *testing.T) {
	h, buf := tinyHarness(t)
	rows, err := h.Figure5(tinyPairs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].WSBase <= 0 || rows[0].WSUCP <= 0 {
		t.Fatalf("bad rows %+v", rows)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("missing render")
	}
}

func TestFigure6And8Render(t *testing.T) {
	h, buf := tinyHarness(t)
	if err := h.Figure6("bp", "sv", 4); err != nil {
		t.Fatal(err)
	}
	if err := h.Figure8("bp", "sv", 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Figure 8") {
		t.Fatal("missing renders")
	}
}

func TestFigure9RendersGrid(t *testing.T) {
	h, buf := tinyHarness(t)
	if err := h.Figure9("bp", "sv", []int{8, 0}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "optimum:") || !strings.Contains(out, "inf") {
		t.Fatalf("grid render incomplete:\n%s", out)
	}
}

func TestFigure12And13And14(t *testing.T) {
	h, buf := tinyHarness(t)
	if err := h.Compare("fig12", tinyPairs()); err != nil {
		t.Fatal(err)
	}
	if err := h.Compare("fig13", tinyPairs()); err != nil {
		t.Fatal(err)
	}
	if err := h.Compare("fig14", []Workload{NewWorkload("bp", "sv", "dc")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 12", "Figure 13", "Figure 14",
		"WeightedSpeedup", "ANTT", "Fairness", "WS-DMIL", "SMK-(P+W)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// TestParallelOutputByteIdentical pins the runner contract at the table
// level: a figure rendered from a parallel grid must be byte-identical
// to the strictly serial render — and a render interrupted partway and
// resumed from its result journal in a "new process" must be
// byte-identical too.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(parallel int, jnl *journal.Journal, figs ...func(h *Harness) error) string {
		s := gcke.NewSession(gcke.ScaledConfig(2), 15_000)
		s.ProfileCycles = 10_000
		var buf bytes.Buffer
		h := New(s, &buf)
		h.Runner = NewRunner(parallel)
		h.Runner.Journal = jnl
		for _, fig := range figs {
			if err := fig(h); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	fig12 := func(h *Harness) error { return h.Compare("fig12", tinyPairs()) }
	fig9 := func(h *Harness) error { return h.Figure9("bp", "sv", []int{4, 16, 0}) }

	serial := render(1, nil, fig12, fig9)
	parallel := render(8, nil, fig12, fig9)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	// "Interrupted" sweep: only Figure 12 completes before the process
	// dies. The resumed render — fresh session and harness, same journal
	// file — must replay the journaled points and produce the exact
	// bytes of the uninterrupted run.
	path := filepath.Join(t.TempDir(), "bench.journal")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	render(8, j1, fig12)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() == 0 {
		t.Fatal("interrupted render journaled nothing")
	}
	before := j2.Len()
	resumed := render(8, j2, fig12, fig9)
	if resumed != serial {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", serial, resumed)
	}
	if j2.Len() <= before {
		t.Fatal("resumed render journaled no new points")
	}
}

func TestClassAgg(t *testing.T) {
	a := newClassAgg()
	a.add("C+M", 2)
	a.add("C+M", 8)
	a.add("M+M", 3)
	rows := a.rows()
	if len(rows) != 3 || rows[len(rows)-1] != "ALL" {
		t.Fatalf("rows = %v", rows)
	}
	if g := a.gmean("C+M"); g < 3.9 || g > 4.1 {
		t.Fatalf("gmean = %v, want 4", g)
	}
	if m := a.mean("C+M"); m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
}

func TestPaperTargetsComplete(t *testing.T) {
	p := PaperTable2()
	if len(p) != 13 {
		t.Fatalf("paper table has %d rows", len(p))
	}
	for _, name := range []string{"cp", "hs", "dc", "pf", "bp", "bs", "st", "3m", "sv", "cd", "s2", "ks", "ax"} {
		if _, ok := p[name]; !ok {
			t.Errorf("missing paper row for %s", name)
		}
	}
	pub := Published()
	if pub.WSDMILWS <= pub.WSWS {
		t.Fatal("published DMIL must beat WS")
	}
}

func TestPaperComparisonRenders(t *testing.T) {
	h, buf := tinyHarness(t)
	err := h.PaperComparison(tinyPairs(), []Workload{NewWorkload("bp", "sv", "dc")})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"paper vs measured", "classification agreement", "WS-DMIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
