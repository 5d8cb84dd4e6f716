// The thirteen benchmarks of the paper's Table 2, parameterized so that
// the measurable characteristics match the published ones on the Table 1
// baseline architecture:
//
//   - static-resource occupancies (RF_oc, SMEM_oc, Thread_oc, TB_occu)
//     are matched exactly by construction (ThreadsPerTB, RegsPerThread,
//     SmemPerTB are solved from the published fractions);
//   - Cinst/Minst and Req/Minst are matched exactly (they are direct
//     program-shape knobs);
//   - L1D miss rate, L1D reservation-failure rate and the LSU-stall-based
//     C/M classification are matched approximately through the locality
//     knobs (reuse window, hot region, L2-warm region, footprint) —
//     EXPERIMENTS.md records paper-vs-measured values.

package kern

import "fmt"

// Benchmarks returns fresh copies of the thirteen paper benchmarks in
// Table 2 order: cp hs dc pf bp bs st 3m sv cd s2 ks ax.
func Benchmarks() []Desc {
	return []Desc{
		{
			// cutcp: SFU-heavy compute with shared memory and decent
			// L1 locality.
			Name: "cp", Class: Compute,
			ThreadsPerTB: 128, RegsPerThread: 28, SmemPerTB: 4096,
			CPerM: 4, SFUFrac: 0.35, ReqPerMinst: 2, StoreFrac: 0.05,
			DepDist: 4, MaxPendingLoads: 2,
			FootprintLines: 2048, ReuseProb: 0.50, ReuseWindow: 4,
			WarmProb: 0.80, WarmL2Frac: 0.10,
			InstrsPerWarp: 3000,
		},
		{
			// hotspot: compute-bound despite a ~1.0 L1 miss rate; its
			// working set is largely L2-resident.
			Name: "hs", Class: Compute,
			ThreadsPerTB: 256, RegsPerThread: 36, SmemPerTB: 3072,
			CPerM: 7, SFUFrac: 0.10, ReqPerMinst: 3, StoreFrac: 0.08,
			DepDist: 7, MaxPendingLoads: 2,
			FootprintLines: 4096, ReuseProb: 0.02, ReuseWindow: 4,
			WarmProb: 0.97, WarmL2Frac: 0.20,
			InstrsPerWarp: 3000,
		},
		{
			// dxtc: small hot texture block, very high L1 hit rate.
			Name: "dc", Class: Compute,
			ThreadsPerTB: 64, RegsPerThread: 36, SmemPerTB: 2048,
			CPerM: 5, SFUFrac: 0.15, ReqPerMinst: 1, StoreFrac: 0.05,
			DepDist: 5, MaxPendingLoads: 2,
			FootprintLines: 1024, ReuseProb: 0.35, ReuseWindow: 4,
			HotProb: 0.88, HotLines: 24,
			WarmProb: 0.05, WarmL2Frac: 0.05,
			InstrsPerWarp: 3000,
		},
		{
			// pathfinder: streams through an L2-resident row; misses L1
			// almost always but never saturates miss resources.
			Name: "pf", Class: Compute,
			ThreadsPerTB: 256, RegsPerThread: 16, SmemPerTB: 2048,
			CPerM: 6, SFUFrac: 0.05, ReqPerMinst: 2, StoreFrac: 0.08,
			DepDist: 3, MaxPendingLoads: 1,
			FootprintLines: 1024, ReuseProb: 0.01, ReuseWindow: 2,
			WarmProb: 0.975, WarmL2Frac: 0.20,
			InstrsPerWarp: 3000,
		},
		{
			// backprop: moderate locality, mild miss-resource pressure.
			Name: "bp", Class: Compute,
			ThreadsPerTB: 256, RegsPerThread: 12, SmemPerTB: 1088,
			CPerM: 6, SFUFrac: 0.10, ReqPerMinst: 2, StoreFrac: 0.10,
			DepDist: 4, MaxPendingLoads: 2,
			FootprintLines: 2048, ReuseProb: 0.20, ReuseWindow: 4,
			WarmProb: 0.92, WarmL2Frac: 0.15,
			InstrsPerWarp: 3000,
		},
		{
			// bfs: fully streaming, L2-resident frontier; no rsfail.
			Name: "bs", Class: Compute,
			ThreadsPerTB: 512, RegsPerThread: 16, SmemPerTB: 0,
			CPerM: 4, SFUFrac: 0.05, ReqPerMinst: 1, StoreFrac: 0.05,
			DepDist: 4, MaxPendingLoads: 1,
			FootprintLines: 2048, ReuseProb: 0, ReuseWindow: 0,
			WarmProb: 0.97, WarmL2Frac: 0.20,
			InstrsPerWarp: 3000,
		},
		{
			// stencil: halo reuse in L1, larger L2 spill.
			Name: "st", Class: Compute,
			ThreadsPerTB: 512, RegsPerThread: 16, SmemPerTB: 0,
			CPerM: 4, SFUFrac: 0.05, ReqPerMinst: 1, StoreFrac: 0.10,
			DepDist: 4, MaxPendingLoads: 2,
			FootprintLines: 2048, ReuseProb: 0.30, ReuseWindow: 4,
			WarmProb: 0.88, WarmL2Frac: 0.18,
			InstrsPerWarp: 3000,
		},
		{
			// 3mm: dense matrix chains, DRAM-bound with some row reuse.
			Name: "3m", Class: Memory,
			ThreadsPerTB: 256, RegsPerThread: 12, SmemPerTB: 0,
			CPerM: 2, SFUFrac: 0.02, ReqPerMinst: 1, StoreFrac: 0.05,
			DepDist: 11, MaxPendingLoads: 4,
			FootprintLines: 4096, ReuseProb: 0.45, ReuseWindow: 4,
			WarmProb: 0.20, WarmL2Frac: 0.50,
			InstrsPerWarp: 3000,
		},
		{
			// spmv: irregular sparse accesses, heavy miss traffic.
			Name: "sv", Class: Memory,
			ThreadsPerTB: 192, RegsPerThread: 16, SmemPerTB: 0,
			CPerM: 3, SFUFrac: 0.02, ReqPerMinst: 3, StoreFrac: 0.05,
			DepDist: 15, MaxPendingLoads: 4,
			FootprintLines: 4096, ReuseProb: 0.30, ReuseWindow: 4,
			WarmProb: 0.20, WarmL2Frac: 0.50,
			InstrsPerWarp: 3000,
		},
		{
			// cfd: very large working set, six requests per memory
			// instruction; memory-bound despite nine compute per mem.
			Name: "cd", Class: Memory,
			ThreadsPerTB: 64, RegsPerThread: 64, SmemPerTB: 0,
			CPerM: 9, SFUFrac: 0.05, ReqPerMinst: 6, StoreFrac: 0.10,
			DepDist: 39, MaxPendingLoads: 4,
			FootprintLines: 8192, ReuseProb: 0.04, ReuseWindow: 4,
			WarmProb: 0.10, WarmL2Frac: 0.50,
			InstrsPerWarp: 3000,
		},
		{
			// sad2: short loop body, streaming frame data.
			Name: "s2", Class: Memory,
			ThreadsPerTB: 128, RegsPerThread: 16, SmemPerTB: 0,
			CPerM: 2, SFUFrac: 0.02, ReqPerMinst: 2, StoreFrac: 0.10,
			DepDist: 11, MaxPendingLoads: 4,
			FootprintLines: 4096, ReuseProb: 0.14, ReuseWindow: 4,
			WarmProb: 0.15, WarmL2Frac: 0.50,
			InstrsPerWarp: 3000,
		},
		{
			// kmeans: 17 uncoalesced requests per memory instruction.
			Name: "ks", Class: Memory,
			ThreadsPerTB: 256, RegsPerThread: 12, SmemPerTB: 0,
			CPerM: 3, SFUFrac: 0.02, ReqPerMinst: 17, StoreFrac: 0.05,
			DepDist: 7, MaxPendingLoads: 2,
			FootprintLines: 8192, ReuseProb: 0.35, ReuseWindow: 8,
			Scatter:       true,
			InstrsPerWarp: 3000,
		},
		{
			// ATAX: scattered vector gathers; extreme rsfail pressure.
			Name: "ax", Class: Memory,
			ThreadsPerTB: 256, RegsPerThread: 12, SmemPerTB: 0,
			CPerM: 2, SFUFrac: 0.02, ReqPerMinst: 11, StoreFrac: 0.05,
			DepDist: 23, MaxPendingLoads: 8,
			FootprintLines: 16384, ReuseProb: 0.25, ReuseWindow: 4,
			Scatter:       true,
			InstrsPerWarp: 3000,
		},
	}
}

// ByName returns the benchmark descriptor with the given name.
func ByName(name string) (Desc, error) {
	for _, d := range Benchmarks() {
		if d.Name == name {
			return d, nil
		}
	}
	return Desc{}, fmt.Errorf("kern: unknown benchmark %q", name)
}

// Names returns the benchmark names in Table 2 order.
func Names() []string {
	bs := Benchmarks()
	out := make([]string, len(bs))
	for i, d := range bs {
		out[i] = d.Name
	}
	return out
}
