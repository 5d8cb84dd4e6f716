// Table 2 and Figure 2: benchmark characterization in isolation.

package harness

import (
	"repro/internal/kern"
	"repro/internal/runner"
)

// Table2Row is one benchmark's measured characteristics.
type Table2Row struct {
	Name                   string
	RFOcc, SmemOcc         float64
	ThreadOcc, TBOcc       float64
	CinstPerMinst          float64
	ReqPerMinst            float64
	L1DMissRate, L1DRsfail float64
	Class                  kern.Class
	IPC, ALUUtil, SFUUtil  float64
	LSUStallFrac           float64
}

// Table2 characterizes every benchmark in isolation (Table 2 and the
// Figure 2 series in one pass); the thirteen isolated runs execute
// concurrently on the harness's pool.
func (h *Harness) Table2() ([]Table2Row, error) {
	s, err := h.session()
	if err != nil {
		return nil, err
	}
	names := kern.Names()
	rows := make([]Table2Row, len(names))
	err = runner.MapErr(h.ctx(), h.Runner.Workers(), len(names), func(i int) error {
		d, err := kern.ByName(names[i])
		if err != nil {
			return err
		}
		r, err := s.RunIsolatedCtx(h.ctx(), d)
		if err != nil {
			return err
		}
		occ := d.OccupancyAt(&h.Config, d.MaxTBsPerSM(&h.Config))
		k := r.Kernels[0]
		row := Table2Row{
			Name:         d.Name,
			RFOcc:        occ.RF,
			SmemOcc:      occ.Smem,
			ThreadOcc:    occ.Threads,
			TBOcc:        occ.TBs,
			L1DMissRate:  k.L1D.MissRate(),
			L1DRsfail:    k.L1D.RsFailRate(),
			Class:        kern.Classify(r.LSUStallFrac()),
			IPC:          k.IPC,
			ALUUtil:      r.ALUUtil(),
			SFUUtil:      r.SFUUtil(),
			LSUStallFrac: r.LSUStallFrac(),
		}
		if k.MemInstrs > 0 {
			row.CinstPerMinst = float64(k.Instrs-k.MemInstrs) / float64(k.MemInstrs)
			row.ReqPerMinst = float64(k.Requests) / float64(k.MemInstrs)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable2 renders the Table 2 reproduction.
func (h *Harness) PrintTable2() error {
	rows, err := h.Table2()
	if err != nil {
		return err
	}
	h.printf("Table 2 — benchmark characteristics (measured in isolation)\n")
	h.printf("%-5s %6s %8s %8s %7s %7s %7s %9s %11s %5s\n",
		"bench", "RF_oc", "SMEM_oc", "Thrd_oc", "TB_oc", "C/Minst", "Req/M", "l1d_miss", "l1d_rsfail", "type")
	for _, r := range rows {
		h.printf("%-5s %5.1f%% %7.1f%% %7.1f%% %6.1f%% %7.1f %7.1f %9.3f %11.3f %5s\n",
			r.Name, r.RFOcc*100, r.SmemOcc*100, r.ThreadOcc*100, r.TBOcc*100,
			r.CinstPerMinst, r.ReqPerMinst, r.L1DMissRate, r.L1DRsfail, r.Class)
	}
	h.printf("\nFigure 2 — computing resource utilization and LSU stalls\n")
	h.printf("%-5s %9s %9s %9s\n", "bench", "ALU_util", "SFU_util", "LSU_stall")
	for _, r := range rows {
		h.printf("%-5s %9.3f %9.3f %8.1f%%\n", r.Name, r.ALUUtil, r.SFUUtil, r.LSUStallFrac*100)
	}
	return nil
}
