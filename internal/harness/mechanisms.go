// The mechanism studies: Figure 8 (RBMI/QBMI recover the starved
// compute kernel), Figure 9 (the SMIL static-limit landscape) and
// Figure 11 (QBMI vs DMIL vs their combination).

package harness

import (
	"strconv"

	gcke "repro"
	"repro/internal/stats"
)

// Figure8 compares warp-instruction issue of a C+M pair under WS,
// WS-RBMI and WS-QBMI, including the per-kernel normalized IPCs the
// paper quotes (bp: 0.39 -> 0.45 -> 0.48).
func (h *Harness) Figure8(a, b string, buckets int) error {
	w := NewWorkload(a, b)
	schemes := []gcke.Scheme{
		{Partition: gcke.PartitionWarpedSlicer, Series: true},
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueRBMI, Series: true},
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI, Series: true},
	}
	h.printf("Figure 8 — warp instructions issued per %d cycles, %s+%s\n",
		stats.SeriesInterval, a, b)
	grid, err := h.RunAll([]Workload{w}, schemes)
	if err != nil {
		return err
	}
	results := grid[0]
	for i, sc := range schemes {
		r := results[i]
		s0 := r.Kernels[0].Series.Issued
		s1 := r.Kernels[1].Series.Issued
		if buckets > 0 && len(s0) > buckets {
			s0, s1 = s0[:buckets], s1[:buckets]
		}
		var t0, t1 uint64
		for _, v := range s0 {
			t0 += uint64(v)
		}
		for _, v := range s1 {
			t1 += uint64(v)
		}
		h.printf("%-8s avg issue/1K: %s=%6.0f %s=%6.0f\n",
			sc.Name(), a, float64(t0)/float64(len(s0)), b, float64(t1)/float64(len(s1)))
	}
	h.printf("\nFigure 8(d) — normalized IPC\n%-8s %8s %8s\n", "scheme", a, b)
	for i, sc := range schemes {
		sp := results[i].SpeedupsOf()
		h.printf("%-8s %8.3f %8.3f\n", sc.Name(), sp[0], sp[1])
	}
	return nil
}

// Figure9 sweeps static in-flight access limits over a grid for one
// pair and prints the Weighted Speedup surface (the paper's 3-D plots).
// Limits are in in-flight L1D accesses; 0 denotes unlimited (Inf).
func (h *Harness) Figure9(a, b string, grid []int) error {
	w := NewWorkload(a, b)
	name := func(v int) string {
		if v == 0 {
			return "inf"
		}
		return strconv.Itoa(v)
	}
	h.printf("Figure 9 — Weighted Speedup vs static limits, %s (rows: Limit_%s, cols: Limit_%s)\n",
		w.Label(), a, b)
	// Flatten the limit surface into one scheme list so all grid points
	// simulate concurrently on the pool.
	schemes := make([]gcke.Scheme, 0, len(grid)*len(grid))
	for _, l0 := range grid {
		for _, l1 := range grid {
			schemes = append(schemes, gcke.Scheme{
				Partition:    gcke.PartitionWarpedSlicer,
				Limiting:     gcke.LimitStatic,
				StaticLimits: []int{l0, l1},
			})
		}
	}
	results, err := h.RunAll([]Workload{w}, schemes)
	if err != nil {
		return err
	}
	h.printf("%7s", "")
	for _, l1 := range grid {
		h.printf(" %6s", name(l1))
	}
	h.printf("\n")
	best, bi, bj := -1.0, 0, 0
	for i, l0 := range grid {
		h.printf("%7s", name(l0))
		for j, l1 := range grid {
			ws := results[0][i*len(grid)+j].WeightedSpeedup()
			if ws > best {
				best, bi, bj = ws, l0, l1
			}
			h.printf(" %6.3f", ws)
		}
		h.printf("\n")
	}
	h.printf("optimum: (%s, %s) WS=%.3f\n\n", name(bi), name(bj), best)
	return nil
}

// Figure11 compares QBMI, DMIL and QBMI+DMIL on top of Warped-Slicer:
// weighted speedup by class plus per-pair L1D miss and rsfail rates.
func (h *Harness) Figure11(pairs []Workload, selected []Workload) error {
	schemes := []gcke.Scheme{wsQBMI, wsDMIL,
		{Partition: gcke.PartitionWarpedSlicer, MemIssue: gcke.MemIssueQBMI, Limiting: gcke.LimitDMIL}}
	labels := []string{"WS-QBMI", "WS-DMIL", "WS-QBMI+DMIL"}

	h.printf("Figure 11(a) — Weighted Speedup (class gmean)\n")
	results, err := h.RunAll(pairs, schemes)
	if err != nil {
		return err
	}
	h.printClasses(labels, byClass(pairs, results, len(schemes), metrics[0].get), true)

	h.printf("\nFigure 11(b,c) — per-kernel L1D miss rate and rsfail rate on selected pairs\n")
	h.printf("%-8s %-13s %11s %13s\n", "pair", "scheme", "miss k0/k1", "rsfail k0/k1")
	sel, err := h.RunAll(selected, schemes)
	if err != nil {
		return err
	}
	for wi, w := range selected {
		for i := range schemes {
			r := sel[wi][i]
			h.printf("%-8s %-13s %5.2f/%5.2f %6.2f/%6.2f\n",
				w.Label(), labels[i],
				r.Kernels[0].L1D.MissRate(), r.Kernels[1].L1D.MissRate(),
				r.Kernels[0].L1D.RsFailRate(), r.Kernels[1].L1D.RsFailRate())
		}
	}
	return nil
}
