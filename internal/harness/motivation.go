// The motivation experiments: Figure 3 (scalability curves and the
// Warped-Slicer sweet spot), Figure 4 (theoretical vs achieved weighted
// speedup), Figure 5 (why L1D cache partitioning does not help) and
// Figure 6 (the compute kernel starving at the L1D).

package harness

import (
	gcke "repro"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Figure3 prints the scalability curves of the two kernels and the
// sweet-spot partition Warped-Slicer selects.
func (h *Harness) Figure3(a, b string) error {
	w := NewWorkload(a, b)
	ds, err := h.kernels(w)
	if err != nil {
		return err
	}
	h.printf("Figure 3(a) — isolated IPC vs thread blocks per SM\n")
	curves := make([][]float64, 2)
	if err := runner.MapErr(h.ctx(), h.Runner.Workers(), len(ds), func(i int) error {
		c, err := h.S.CurveCtx(h.ctx(), ds[i])
		curves[i] = c
		return err
	}); err != nil {
		return err
	}
	for i, d := range ds {
		h.printf("%-4s:", d.Name)
		for _, v := range curves[i] {
			h.printf(" %6.2f", v)
		}
		h.printf("\n")
	}
	row, theo, err := h.S.Partition(ds, gcke.PartitionWarpedSlicer, nil)
	if err != nil {
		return err
	}
	h.printf("\nFigure 3(b) — sweet spot: %v TBs from %s, %v TBs from %s (theoretical WS %.2f)\n",
		row[0], a, row[1], b, theo)
	return nil
}

// Figure4Row is one class's theoretical-vs-achieved gap.
type Figure4Row struct {
	Class                 string
	Theoretical, Achieved float64
}

// Figure4 runs the pair set under Warped-Slicer and compares the
// theoretical weighted speedup at the chosen partition with the
// achieved one.
func (h *Harness) Figure4(pairs []Workload) ([]Figure4Row, error) {
	results, err := h.RunAll(pairs, []gcke.Scheme{warpedSlicer})
	if err != nil {
		return nil, err
	}
	theo := newClassAgg()
	ach := newClassAgg()
	for i, w := range pairs {
		res := results[i][0]
		theo.add(w.Class, res.TheoreticalWS)
		ach.add(w.Class, res.WeightedSpeedup())
	}
	var rows []Figure4Row
	for _, c := range theo.rows() {
		rows = append(rows, Figure4Row{Class: c, Theoretical: theo.gmean(c), Achieved: ach.gmean(c)})
	}
	h.printf("Figure 4 — theoretical vs achieved Weighted Speedup under Warped-Slicer (gmean)\n")
	h.printf("%-6s %12s %9s %7s\n", "class", "theoretical", "achieved", "gap")
	for _, r := range rows {
		gap := 0.0
		if r.Theoretical > 0 {
			gap = 1 - r.Achieved/r.Theoretical
		}
		h.printf("%-6s %12.3f %9.3f %6.1f%%\n", r.Class, r.Theoretical, r.Achieved, gap*100)
	}
	return rows, nil
}

// Figure5Row compares WS with WS plus UCP L1D partitioning for one pair.
type Figure5Row struct {
	Pair           string
	Class          string
	WSBase, WSUCP  float64
	Miss0B, Miss1B float64 // per-kernel L1D miss rates, baseline
	Miss0U, Miss1U float64 // ... under UCP
	Rsf0B, Rsf1B   float64 // per-kernel rsfail rates, baseline
	Rsf0U, Rsf1U   float64
}

// Figure5 evaluates UCP cache partitioning on the paper's six selected
// pairs (plus class geometric means over the full set).
func (h *Harness) Figure5(pairs []Workload) ([]Figure5Row, error) {
	results, err := h.RunAll(pairs, []gcke.Scheme{warpedSlicer, {Partition: gcke.PartitionWarpedSlicer, UCP: true}})
	if err != nil {
		return nil, err
	}
	var rows []Figure5Row
	base := newClassAgg()
	ucp := newClassAgg()
	for i, w := range pairs {
		rb, ru := results[i][0], results[i][1]
		base.add(w.Class, rb.WeightedSpeedup())
		ucp.add(w.Class, ru.WeightedSpeedup())
		rows = append(rows, Figure5Row{
			Pair: w.Label(), Class: w.Class,
			WSBase: rb.WeightedSpeedup(), WSUCP: ru.WeightedSpeedup(),
			Miss0B: rb.Kernels[0].L1D.MissRate(), Miss1B: rb.Kernels[1].L1D.MissRate(),
			Miss0U: ru.Kernels[0].L1D.MissRate(), Miss1U: ru.Kernels[1].L1D.MissRate(),
			Rsf0B: rb.Kernels[0].L1D.RsFailRate(), Rsf1B: rb.Kernels[1].L1D.RsFailRate(),
			Rsf0U: ru.Kernels[0].L1D.RsFailRate(), Rsf1U: ru.Kernels[1].L1D.RsFailRate(),
		})
	}
	h.printf("Figure 5 — effectiveness of UCP L1D cache partitioning on Warped-Slicer\n")
	h.printf("(a) Weighted Speedup (class gmean, then selected pairs)\n")
	h.printf("%-8s %7s %15s\n", "class", "WS", "WS-L1DPartition")
	for _, c := range base.rows() {
		h.printf("%-8s %7.3f %15.3f\n", c, base.gmean(c), ucp.gmean(c))
	}
	h.printf("\n%-8s %7s %8s | (b) miss k0/k1 base->UCP | (c) rsfail k0/k1 base->UCP\n",
		"pair", "WS", "WS-UCP")
	for _, r := range rows {
		h.printf("%-8s %7.3f %8.3f |  %.2f/%.2f -> %.2f/%.2f   |  %.2f/%.2f -> %.2f/%.2f\n",
			r.Pair, r.WSBase, r.WSUCP,
			r.Miss0B, r.Miss1B, r.Miss0U, r.Miss1U,
			r.Rsf0B, r.Rsf1B, r.Rsf0U, r.Rsf1U)
	}
	return rows, nil
}

// Figure6 prints L1D accesses per 1K cycles for a C+M pair: each kernel
// in isolation, then concurrently (the starvation time series).
func (h *Harness) Figure6(a, b string, buckets int) error {
	w := NewWorkload(a, b)
	ds, err := h.kernels(w)
	if err != nil {
		return err
	}
	h.printf("Figure 6 — L1D accesses per %d cycles (%s compute, %s memory)\n",
		stats.SeriesInterval, a, b)
	// The two isolated series runs and the concurrent run are
	// independent simulations; overlap them on the pool.
	iso := make([]*gcke.RunResult, 2)
	var co *gcke.WorkloadResult
	if err := runner.MapErr(h.ctx(), h.Runner.Workers(), 3, func(i int) error {
		var err error
		if i < 2 {
			iso[i], err = h.S.RunIsolatedSeriesCtx(h.ctx(), ds[i])
		} else {
			co, err = h.Run(w, gcke.Scheme{Partition: gcke.PartitionWarpedSlicer, Series: true})
		}
		return err
	}); err != nil {
		return err
	}
	limit := func(s []uint32) []uint32 {
		if buckets > 0 && len(s) > buckets {
			return s[:buckets]
		}
		return s
	}
	h.printf("%-10s", "bucket")
	series := [][]uint32{
		limit(iso[0].Kernels[0].Series.L1Acc),
		limit(iso[1].Kernels[0].Series.L1Acc),
		limit(co.Kernels[0].Series.L1Acc),
		limit(co.Kernels[1].Series.L1Acc),
	}
	labels := []string{a + "-alone", b + "-alone", a + "-co", b + "-co"}
	for _, l := range labels {
		h.printf(" %9s", l)
	}
	h.printf("\n")
	n := len(series[0])
	for _, s := range series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	for i := 0; i < n; i++ {
		h.printf("%-10d", i)
		for _, s := range series {
			h.printf(" %9d", s[i])
		}
		h.printf("\n")
	}
	// Summary: average accesses per bucket, the paper's headline
	// comparison (bp drops well below its isolated rate; sv dominates).
	h.printf("avg/1K:   ")
	for _, s := range series {
		var sum uint64
		for _, v := range s {
			sum += uint64(v)
		}
		h.printf(" %9.0f", float64(sum)/float64(len(s)))
	}
	h.printf("\n")
	return nil
}
