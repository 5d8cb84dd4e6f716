// Paper-vs-measured comparison: the published Table 2 characteristics
// and the evaluation's headline numbers, lined up against what this
// reproduction measures. ckebench writes the result to
// results/paper-vs-measured.txt, which EXPERIMENTS.md mirrors.

package harness

import (
	gcke "repro"
	"repro/internal/kern"
)

// paperTable2 is the published benchmark characterization (Table 2).
type paperTable2Row struct {
	CinstPerMinst float64
	ReqPerMinst   float64
	MissRate      float64
	RsfailRate    float64
	Class         kern.Class
}

// PaperTable2 returns the published Table 2 rows by benchmark name.
func PaperTable2() map[string]paperTable2Row {
	return map[string]paperTable2Row{
		"cp": {4, 2, 0.45, 0.04, kern.Compute},
		"hs": {7, 3, 0.97, 1.53, kern.Compute},
		"dc": {5, 1, 0.09, 0.17, kern.Compute},
		"pf": {6, 2, 0.99, 0.00, kern.Compute},
		"bp": {6, 2, 0.80, 0.33, kern.Compute},
		"bs": {4, 1, 1.00, 0.00, kern.Compute},
		"st": {4, 1, 0.67, 1.15, kern.Compute},
		"3m": {2, 1, 0.63, 5.45, kern.Memory},
		"sv": {3, 3, 0.78, 5.23, kern.Memory},
		"cd": {9, 6, 0.96, 7.23, kern.Memory},
		"s2": {2, 2, 0.92, 6.80, kern.Memory},
		"ks": {3, 17, 1.00, 7.96, kern.Memory},
		"ax": {2, 11, 0.97, 79.70, kern.Memory},
	}
}

// PaperHeadlines are the published evaluation results this reproduction
// targets at shape level.
type PaperHeadlines struct {
	// Average Weighted Speedups (Section 4.1.1): Spatial 1.13, WS 1.20,
	// WS-QBMI 1.22 (+1.5%), WS-DMIL 1.49 (+24.6%).
	SpatialWS, WSWS, WSQBMIWS, WSDMILWS float64
	// ANTT improvements over WS: QBMI 40.5%, DMIL 56.1%.
	QBMIANTTGain, DMILANTTGain float64
	// Fairness improvements over WS: QBMI 17.8%, DMIL 32.3%.
	QBMIFairGain, DMILFairGain float64
	// SMK (Section 4.1.2): WS gains of QBMI 4.4%, DMIL 27.2% over
	// SMK-(P+W); ANTT gains 49.2% and 64.6%.
	SMKQBMIWSGain, SMKDMILWSGain     float64
	SMKQBMIANTTGain, SMKDMILANTTGain float64
	// 3-kernel (Section 4.2): WS gains 3.2% / 19.4%; ANTT 58.3% / 68.7%.
	TriQBMIWSGain, TriDMILWSGain float64
}

// Published returns the paper's headline numbers.
func Published() PaperHeadlines {
	return PaperHeadlines{
		SpatialWS: 1.13, WSWS: 1.20, WSQBMIWS: 1.22, WSDMILWS: 1.49,
		QBMIANTTGain: 0.405, DMILANTTGain: 0.561,
		QBMIFairGain: 0.178, DMILFairGain: 0.323,
		SMKQBMIWSGain: 0.044, SMKDMILWSGain: 0.272,
		SMKQBMIANTTGain: 0.492, SMKDMILANTTGain: 0.646,
		TriQBMIWSGain: 0.032, TriDMILWSGain: 0.194,
	}
}

// PaperComparison runs the characterization and the headline evaluation
// and prints paper-vs-measured, side by side.
func (h *Harness) PaperComparison(pairs []Workload, triples []Workload) error {
	rows, err := h.Table2()
	if err != nil {
		return err
	}
	paper := PaperTable2()
	h.printf("Table 2 — paper vs measured\n")
	h.printf("%-5s | %5s %5s | %9s %9s | %10s %10s | %5s %5s\n",
		"bench", "C/M", "meas", "miss(pap)", "miss(mea)", "rsf(paper)", "rsf(meas)", "type", "meas")
	classOK := 0
	for _, r := range rows {
		p := paper[r.Name]
		match := " "
		if p.Class == r.Class {
			classOK++
			match = "="
		}
		h.printf("%-5s | %5.0f %5.1f | %9.2f %9.2f | %10.2f %10.2f | %4s%s %4s\n",
			r.Name, p.CinstPerMinst, r.CinstPerMinst,
			p.MissRate, r.L1DMissRate, p.RsfailRate, r.L1DRsfail,
			p.Class, match, r.Class)
	}
	h.printf("classification agreement: %d/13\n\n", classOK)

	m, err := h.headlines(pairs, triples)
	if err != nil {
		return err
	}
	pub := Published()
	h.printf("Headline gains over the WS baseline (2-kernel set, gmean) — paper vs measured\n")
	h.printf("%-22s %8s %9s\n", "metric", "paper", "measured")
	for _, r := range headlineRows {
		if r.pct {
			h.printf("%-22s %7.1f%% %8.1f%%\n", r.label, r.of(pub)*100, r.of(m)*100)
		} else {
			h.printf("%-22s %8.3f %9.3f\n", r.label, r.of(pub), r.of(m))
		}
	}
	return nil
}

// headlineRows are PaperComparison's rows: each reads one number from a
// PaperHeadlines, paper or measured, printed in percent when pct.
var headlineRows = []struct {
	label string
	pct   bool
	of    func(PaperHeadlines) float64
}{
	{"WS-QBMI WeightedSpd", true, func(x PaperHeadlines) float64 { return relGain(x.WSQBMIWS, x.WSWS, false) }},
	{"WS-DMIL WeightedSpd", true, func(x PaperHeadlines) float64 { return relGain(x.WSDMILWS, x.WSWS, false) }},
	{"WS-QBMI ANTT", true, func(x PaperHeadlines) float64 { return x.QBMIANTTGain }},
	{"WS-DMIL ANTT", true, func(x PaperHeadlines) float64 { return x.DMILANTTGain }},
	{"WS-QBMI Fairness", true, func(x PaperHeadlines) float64 { return x.QBMIFairGain }},
	{"WS-DMIL Fairness", true, func(x PaperHeadlines) float64 { return x.DMILFairGain }},
	{"SMK+QBMI WeightedSpd", true, func(x PaperHeadlines) float64 { return x.SMKQBMIWSGain }},
	{"SMK+DMIL WeightedSpd", true, func(x PaperHeadlines) float64 { return x.SMKDMILWSGain }},
	{"SMK+QBMI ANTT", true, func(x PaperHeadlines) float64 { return x.SMKQBMIANTTGain }},
	{"SMK+DMIL ANTT", true, func(x PaperHeadlines) float64 { return x.SMKDMILANTTGain }},
	{"3-kern QBMI WeightedS", true, func(x PaperHeadlines) float64 { return x.TriQBMIWSGain }},
	{"3-kern DMIL WeightedS", true, func(x PaperHeadlines) float64 { return x.TriDMILWSGain }},
	// Absolute weighted speedups, the level the gains above hide.
	{"Spatial WS (absolute)", false, func(x PaperHeadlines) float64 { return x.SpatialWS }},
	{"WS WS (absolute)", false, func(x PaperHeadlines) float64 { return x.WSWS }},
	{"WS-QBMI WS (absolute)", false, func(x PaperHeadlines) float64 { return x.WSQBMIWS }},
	{"WS-DMIL WS (absolute)", false, func(x PaperHeadlines) float64 { return x.WSDMILWS }},
}

// headlines measures what Published reports: Figures 12 and 13's schemes
// on pairs and Figure 14's on triples, each metric the gmean over all
// workloads.
func (h *Harness) headlines(pairs, triples []Workload) (PaperHeadlines, error) {
	two, err := h.gmeans(pairs, append(append([]gcke.Scheme(nil), fig12.schemes...), fig13.schemes...))
	if err != nil {
		return PaperHeadlines{}, err
	}
	three, err := h.gmeans(triples, fig14.schemes)
	if err != nil {
		return PaperHeadlines{}, err
	}
	// Indexed by scheme: Spatial, WS, WS-QBMI, WS-DMIL, then SMK-(P+W),
	// SMK-(P+QBMI), SMK-(P+DMIL); for triples WS, WS-QBMI, WS-DMIL.
	ws, antt, fair, tri := two[0], two[1], two[2], three[0]
	return PaperHeadlines{
		SpatialWS: ws[0], WSWS: ws[1], WSQBMIWS: ws[2], WSDMILWS: ws[3],
		QBMIANTTGain: relGain(antt[2], antt[1], true), DMILANTTGain: relGain(antt[3], antt[1], true),
		QBMIFairGain: relGain(fair[2], fair[1], false), DMILFairGain: relGain(fair[3], fair[1], false),
		SMKQBMIWSGain: relGain(ws[5], ws[4], false), SMKDMILWSGain: relGain(ws[6], ws[4], false),
		SMKQBMIANTTGain: relGain(antt[5], antt[4], true), SMKDMILANTTGain: relGain(antt[6], antt[4], true),
		TriQBMIWSGain: relGain(tri[1], tri[0], false), TriDMILWSGain: relGain(tri[2], tri[0], false),
	}, nil
}

// gmeans runs workloads under schemes and returns each scheme's gmean,
// over all workloads, of weighted speedup, ANTT and fairness, indexed
// [metric][scheme].
func (h *Harness) gmeans(workloads []Workload, schemes []gcke.Scheme) ([3][]float64, error) {
	var out [3][]float64
	grid, err := h.RunAll(workloads, schemes)
	if err != nil {
		return out, err
	}
	for i := range out {
		for _, a := range byClass(workloads, grid, len(schemes), metrics[i].get) {
			out[i] = append(out[i], a.gmean("ALL"))
		}
	}
	return out, nil
}

// relGain is v's relative gain over base (0 when base is): the rise for
// a higher-is-better metric, the fall when lowerBetter (ANTT).
func relGain(v, base float64, lowerBetter bool) float64 {
	switch {
	case base == 0:
		return 0
	case lowerBetter:
		return 1 - v/base
	}
	return v/base - 1
}
