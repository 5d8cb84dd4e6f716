// Package stats collects simulation counters and computes the paper's
// evaluation metrics: per-kernel IPC, Weighted Speedup, ANTT (average
// normalized turnaround time), Fairness, LSU-stall percentage, compute
// utilization and L1D miss/reservation-failure rates. It also holds the
// 1 K-cycle time series behind Figures 6 and 8.
//
// Each simulated event increments one counter: an issued instruction its
// kind's KernelCounters field, a successful L1D access or a reservation
// failure the L1's cache.KernelStats. Every other count — a kernel's
// Instrs and Requests, the machine's LSU-stall, LSU-busy and ALU/SFU
// issue totals, the series — is derived from those.
package stats

import (
	"fmt"
	"math"

	"repro/internal/cache"
)

// KernelCounters is one SM's counts for one kernel slot: instructions
// issued, one counter per kind, and thread blocks completed. The
// kernel's L1D accesses and reservation failures are its
// cache.KernelStats.
type KernelCounters struct {
	ALUInstrs uint64
	SFUInstrs uint64
	MemInstrs uint64
	TBsDone   uint64
}

// Instrs returns the warp instructions issued, of every kind.
func (c *KernelCounters) Instrs() uint64 { return c.ALUInstrs + c.SFUInstrs + c.MemInstrs }

// SeriesInterval is the bucket width for time series, per the paper's
// 1 K-cycle sampling.
const SeriesInterval = 1024

// Series is one per-kernel time series (one value per 1 K-cycle bucket).
// Issued and L1Acc are the differences of the kernel's counters, summed
// over SMs, between consecutive multiples of SeriesInterval; the bucket
// the run ends in holds what it counted since the last multiple.
type Series struct {
	Issued []uint32 // warp instructions issued per bucket
	L1Acc  []uint32 // successful L1D accesses per bucket
	// Inflight and Limit are sampled, summed over SMs, at every multiple
	// of 1024 cycles of a Session evaluation run: the kernel's in-flight
	// memory instructions and its DMIL limiting number. Limit is nil
	// unless the scheme runs DMIL; both are nil for runs the Session does
	// not sample (profiles, bare gpu runs).
	Inflight []uint32 `json:",omitempty"`
	Limit    []uint32 `json:",omitempty"`
}

// KernelResult is the per-kernel outcome of a run.
type KernelResult struct {
	Name      string
	Instrs    uint64
	IPC       float64
	MemInstrs uint64
	Requests  uint64
	L1D       cache.KernelStats
	TBsDone   uint64
	Series    *Series // nil unless series collection was enabled
}

// RunResult is the outcome of one simulation.
type RunResult struct {
	Cycles  int64
	NumSMs  int
	Kernels []KernelResult

	// SM-level aggregates (summed over SMs). The LSU stalls on each
	// reservation failure and is busy for each successful L1D access, so
	// the two are sums of the L1s' RsFail and Accesses.
	LSUStallCycles uint64 // cycles with the LSU head blocked by a reservation failure
	LSUBusyCycles  uint64 // cycles the LSU serviced a request
	ALUIssued      uint64
	SFUIssued      uint64
	ALUPortCycles  uint64 // cycles*ports summed over SMs
	SFUPortCycles  uint64
	SMCycles       uint64 // cycles summed over SMs

	// Mem aggregates memory-system activity for the energy model.
	Mem MemSystemCounters
}

// LSUStallFrac is the fraction of SM cycles with a stalled memory
// pipeline (the paper's "percentage of LSU stall cycles").
func (r *RunResult) LSUStallFrac() float64 {
	if r.SMCycles == 0 {
		return 0
	}
	return float64(r.LSUStallCycles) / float64(r.SMCycles)
}

// ALUUtil is ALU instructions issued per ALU issue slot.
func (r *RunResult) ALUUtil() float64 {
	if r.ALUPortCycles == 0 {
		return 0
	}
	return float64(r.ALUIssued) / float64(r.ALUPortCycles)
}

// SFUUtil is SFU instructions issued per SFU issue slot.
func (r *RunResult) SFUUtil() float64 {
	if r.SFUPortCycles == 0 {
		return 0
	}
	return float64(r.SFUIssued) / float64(r.SFUPortCycles)
}

// ComputeUtil is combined compute-issue-slot utilization.
func (r *RunResult) ComputeUtil() float64 {
	tot := r.ALUPortCycles + r.SFUPortCycles
	if tot == 0 {
		return 0
	}
	return float64(r.ALUIssued+r.SFUIssued) / float64(tot)
}

// TotalIPC is the machine-wide instructions per cycle.
func (r *RunResult) TotalIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var t uint64
	for _, k := range r.Kernels {
		t += k.Instrs
	}
	return float64(t) / float64(r.Cycles)
}

// Speedups returns per-kernel normalized IPC (shared IPC over isolated
// IPC). isolated[i] must be the isolated-execution IPC of kernel i.
func (r *RunResult) Speedups(isolated []float64) []float64 {
	out := make([]float64, len(r.Kernels))
	for i := range r.Kernels {
		if i < len(isolated) && isolated[i] > 0 {
			out[i] = r.Kernels[i].IPC / isolated[i]
		}
	}
	return out
}

// WeightedSpeedup is the sum of per-kernel speedups.
func WeightedSpeedup(speedups []float64) float64 {
	var s float64
	for _, v := range speedups {
		s += v
	}
	return s
}

// ANTT is the average normalized turnaround time: the mean of the
// per-kernel slowdowns (1/speedup). Lower is better.
func ANTT(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	var s float64
	for _, v := range speedups {
		if v <= 0 {
			return math.Inf(1)
		}
		s += 1 / v
	}
	return s / float64(len(speedups))
}

// Fairness is min(speedup)/max(speedup). Higher is better; 1 is ideal.
func Fairness(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	lo, hi := speedups[0], speedups[0]
	for _, v := range speedups[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= 0 {
		return 0
	}
	return lo / hi
}

// GMean returns the geometric mean of xs, ignoring non-positive values.
func GMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// String renders a compact human-readable summary.
func (r *RunResult) String() string {
	s := fmt.Sprintf("cycles=%d computeUtil=%.3f lsuStall=%.3f\n",
		r.Cycles, r.ComputeUtil(), r.LSUStallFrac())
	for _, k := range r.Kernels {
		s += fmt.Sprintf("  %-4s ipc=%7.3f mem=%8d req=%9d l1dMiss=%.3f l1dRsfail=%.3f\n",
			k.Name, k.IPC, k.MemInstrs, k.Requests, k.L1D.MissRate(), k.L1D.RsFailRate())
	}
	return s
}
