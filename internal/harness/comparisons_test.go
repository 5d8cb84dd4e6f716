package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestComparisonsGolden pins the bytes of every comparison table, the
// energy study, Figure 11 and the paper-vs-measured block on a 2-SM
// machine. On a mismatch it prints a line diff against the golden.
func TestComparisonsGolden(t *testing.T) {
	h, buf := tinyHarness(t)
	pairs, triples := tinyPairs(), []Workload{NewWorkload("bp", "sv", "dc")}
	if err := h.Compare("fig15", pairs); err == nil {
		t.Fatal("Compare ran a comparison named fig15")
	}
	var got bytes.Buffer
	for _, name := range []string{"fig12", "fig13", "fig14", "sens-l1d", "sens-lrr", "sens-mshr",
		"abl-gdmil", "abl-bypass", "abl-dynws", "abl-l2mil", "energy", "abl-qbmi", "abl-tbt",
		"fig11", "paper-vs-measured"} {
		buf.Reset()
		var err error
		switch name {
		case "fig14":
			err = h.Compare(name, triples)
		case "energy":
			err = h.EnergyStudy(pairs)
		case "fig11":
			err = h.Figure11(pairs, pairs[1:])
		case "paper-vs-measured":
			err = h.PaperComparison(pairs, triples)
		default:
			err = h.Compare(name, pairs)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "=== %s\n%s", name, buf.Bytes())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "comparisons.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if d := lineDiff(string(want), got.String()); d != "" {
		t.Fatalf("tables differ from testdata/comparisons.golden (-golden +got):\n%s", d)
	}
}

// lineDiff lists the lines of a longest-common-subsequence diff of want
// against got: "-" lines only in want, "+" lines only in got, each with
// its line number. It is "" when the two are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	// lcs[i][j] is the length of the longest common subsequence of a[i:]
	// and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var d strings.Builder
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case j < len(b) && (i == len(a) || lcs[i][j+1] >= lcs[i+1][j]):
			fmt.Fprintf(&d, "+%d: %s\n", j+1, b[j])
			j++
		default:
			fmt.Fprintf(&d, "-%d: %s\n", i+1, a[i])
			i++
		}
	}
	return d.String()
}
