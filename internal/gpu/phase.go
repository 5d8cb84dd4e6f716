// Per-phase wall-time accounting for the cycle engine. With
// Options.PhaseTime enabled, the engine records how long each phase of
// the cycle — SM tick, outbound drain, request-network tick, partition
// tick, response-network tick — spends executing, so "where does a
// cycle's host time go?" is measured instead of guessed. The phases run
// back to back on one goroutine: their sum is the loop's wall-clock time
// less the per-cycle bookkeeping around Step.
package gpu

import "sync/atomic"

// PhaseStats is cumulative per-phase execution time in nanoseconds,
// plus the number of cycles measured.
type PhaseStats struct {
	Cycles    int64 `json:"cycles"`
	SMNs      int64 `json:"sm_ns"`
	DrainNs   int64 `json:"drain_ns"`
	ReqNetNs  int64 `json:"reqnet_ns"`
	PartNs    int64 `json:"partition_ns"`
	RespNetNs int64 `json:"respnet_ns"`
}

// sub returns the component-wise difference s - o.
func (s PhaseStats) sub(o PhaseStats) PhaseStats {
	return PhaseStats{
		Cycles:    s.Cycles - o.Cycles,
		SMNs:      s.SMNs - o.SMNs,
		DrainNs:   s.DrainNs - o.DrainNs,
		ReqNetNs:  s.ReqNetNs - o.ReqNetNs,
		PartNs:    s.PartNs - o.PartNs,
		RespNetNs: s.RespNetNs - o.RespNetNs,
	}
}

// TotalNs returns the summed execution time across phases.
func (s PhaseStats) TotalNs() int64 {
	return s.SMNs + s.DrainNs + s.ReqNetNs + s.PartNs + s.RespNetNs
}

// phaseTotals accumulates phase time across every run in the process
// (ckeserve exports it via /statz; driver -phasetrace summaries read it
// at exit). Atomic because runs execute concurrently on the runner
// pool.
var phaseTotals [6]atomic.Int64

func addPhaseTotals(d PhaseStats) {
	phaseTotals[0].Add(d.Cycles)
	phaseTotals[1].Add(d.SMNs)
	phaseTotals[2].Add(d.DrainNs)
	phaseTotals[3].Add(d.ReqNetNs)
	phaseTotals[4].Add(d.PartNs)
	phaseTotals[5].Add(d.RespNetNs)
}

// PhaseTotals returns the process-wide cumulative phase times across
// all runs that had Options.PhaseTime enabled.
func PhaseTotals() PhaseStats {
	return PhaseStats{
		Cycles:    phaseTotals[0].Load(),
		SMNs:      phaseTotals[1].Load(),
		DrainNs:   phaseTotals[2].Load(),
		ReqNetNs:  phaseTotals[3].Load(),
		PartNs:    phaseTotals[4].Load(),
		RespNetNs: phaseTotals[5].Load(),
	}
}
