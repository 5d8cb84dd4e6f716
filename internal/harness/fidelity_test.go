package harness

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// fidelity is what the committed full-size results say about how close
// the model comes to the paper: results/paper-vs-measured.txt (Table 2
// and the headline gains) and results/fig12.txt (class gmeans). CI's
// fidelity job proves those files are what the model produces, so
// reading them ratchets full-size fidelity at no simulation cost.
type fidelity struct {
	classes, benches int     // Table 2 class agreement, as printed
	signs, gains     int     // headline gain rows whose sign agrees, of gains
	gainErr          float64 // mean |paper - measured| over the gain rows, pp
	missErr          float64 // mean |L1 miss rate paper - measured| over Table 2
	// rsfErr is mean |log10((measured+0.01)/(paper+0.01))| of Table 2's
	// rsfail rates, bench's kern.rsfail_log10_err: the rates span four
	// decades and include zero, hence the log and the offset.
	rsfErr          float64
	spatialCC, wsCC float64 // Figure 12 C+C WeightedSpeedup gmeans
}

// fidelityFloors are what the committed results held when the ratchet
// was set (one warm cursor per SM and kernel). A floor may only tighten:
// moving one toward a worse value hides a fidelity regression instead of
// fixing it.
var fidelityFloors = []struct {
	name string
	ok   func(f fidelity) bool
}{
	{"classes = 13/13", func(f fidelity) bool { return f.classes == 13 && f.benches == 13 }},
	{"headline gain signs >= 11/12", func(f fidelity) bool { return f.gains == 12 && f.signs >= 11 }},
	{"Spatial C+C gmean >= 0.97", func(f fidelity) bool { return f.spatialCC >= 0.97 }},
	{"WS C+C gmean > 1.0", func(f fidelity) bool { return f.wsCC > 1.0 }},
	{"mean |L1 miss err| <= 0.080", func(f fidelity) bool { return f.missErr <= 0.080 }},
	{"mean |log10 rsfail err| <= 0.735", func(f fidelity) bool { return f.rsfErr <= 0.735 }},
	{"mean |paper - measured| over the gain rows <= 24.2 pp", func(f fidelity) bool { return f.gainErr <= 24.2 }},
}

// violations returns the names of the floors f breaks.
func (f fidelity) violations() []string {
	var out []string
	for _, fl := range fidelityFloors {
		if !fl.ok(f) {
			out = append(out, fl.name)
		}
	}
	return out
}

// parseFidelity reads the two committed result files' text.
func parseFidelity(pvm, fig12 string) (fidelity, error) {
	var f fidelity
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			v = math.NaN() // fails every floor it feeds
		}
		return v
	}
	section := ""
	for _, line := range strings.Split(pvm, "\n") {
		fs := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Table 2"), strings.HasPrefix(line, "Headline gains"):
			section = fs[0]
		case strings.HasPrefix(line, "classification agreement:"):
			if _, err := fmt.Sscanf(fs[2], "%d/%d", &f.classes, &f.benches); err != nil {
				return f, fmt.Errorf("class agreement %q: %v", line, err)
			}
		case section == "Table" && len(fs) == 13 && fs[1] == "|" && fs[0] != "bench":
			f.missErr += math.Abs(num(fs[5]) - num(fs[6]))
			f.rsfErr += math.Abs(math.Log10((num(fs[9]) + 0.01) / (num(fs[8]) + 0.01)))
		case section == "Headline" && len(fs) >= 3 && strings.HasSuffix(line, "%"):
			paper, meas := num(fs[len(fs)-2]), num(fs[len(fs)-1])
			f.gains++
			f.gainErr += math.Abs(paper - meas)
			if paper > 0 == (meas > 0) {
				f.signs++
			}
		}
	}
	if f.benches == 0 || f.gains == 0 {
		return f, fmt.Errorf("no Table 2 class agreement or headline gain rows")
	}
	f.missErr /= float64(f.benches)
	f.rsfErr /= float64(f.benches)
	f.gainErr /= float64(f.gains)

	inWS := false
	for _, line := range strings.Split(fig12, "\n") {
		fs := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "WeightedSpeedup (gmean by class)"):
			inWS = true
		case inWS && len(fs) == 5 && fs[0] == "C+C":
			f.spatialCC, f.wsCC = num(fs[1]), num(fs[2])
			return f, nil
		}
	}
	return f, fmt.Errorf("no C+C row under Figure 12's WeightedSpeedup")
}

func readResults(t *testing.T) (pvm, fig12 string) {
	t.Helper()
	a, err := os.ReadFile("../../results/paper-vs-measured.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../../results/fig12.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(a), string(b)
}

// TestPaperFidelity is the fidelity ratchet: the committed full-size
// results hold every floor in fidelityFloors, and each floor fails on a
// copy of the text mutated to break it (and only it).
func TestPaperFidelity(t *testing.T) {
	pvm, fig12 := readResults(t)
	f, err := parseFidelity(pvm, fig12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", f)
	if v := f.violations(); len(v) > 0 {
		t.Fatalf("the committed results break fidelity floors %q (%+v)", v, f)
	}

	for _, tc := range []struct {
		floor    string
		file     *string // which text the mutation edits
		old, new string
	}{
		{fidelityFloors[0].name, &pvm, "classification agreement: 13/13", "classification agreement: 12/13"},
		{fidelityFloors[1].name, &pvm, "SMK+DMIL ANTT             64.6%      0.1%", "SMK+DMIL ANTT             64.6%     -0.1%"},
		{fidelityFloors[2].name, &fig12, "C+C              1.011         1.026", "C+C              0.969         1.026"},
		{fidelityFloors[3].name, &fig12, "C+C              1.011         1.026", "C+C              1.011         1.000"},
		{fidelityFloors[4].name, &pvm, "|      1.00      0.75 |", "|      1.00      0.45 |"},
		{fidelityFloors[5].name, &pvm, "|      79.70       3.31 |", "|      79.70       0.31 |"},
		{fidelityFloors[6].name, &pvm, "WS-DMIL WeightedSpd       24.2%      5.1%", "WS-DMIL WeightedSpd       24.2%      3.1%"},
	} {
		t.Run(tc.floor, func(t *testing.T) {
			if !strings.Contains(*tc.file, tc.old) {
				t.Fatalf("the results no longer hold %q; update the mutation", tc.old)
			}
			texts := map[*string]string{&pvm: pvm, &fig12: fig12}
			texts[tc.file] = strings.Replace(*tc.file, tc.old, tc.new, 1)
			m, err := parseFidelity(texts[&pvm], texts[&fig12])
			if err != nil {
				t.Fatal(err)
			}
			if v := m.violations(); len(v) != 1 || v[0] != tc.floor {
				t.Fatalf("mutated results break %q, want exactly %q (%+v)", v, tc.floor, m)
			}
		})
	}
}
