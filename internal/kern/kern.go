// Package kern models GPU kernels synthetically. The paper's schemes
// never inspect program semantics — they react to *rates*: how often a
// kernel issues memory instructions (Cinst/Minst), how many coalesced
// requests each memory instruction produces (Req/Minst), the kernel's
// L1D locality, and its static-resource footprint (registers, shared
// memory, threads, TB slots). A Desc captures exactly those knobs, and
// the thirteen descriptors in benchmarks.go are parameterized to match
// Table 2 of the paper.
package kern

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/xrand"
)

// Class is the paper's workload classification.
type Class int

const (
	// Compute-intensive: less than 20% LSU stall cycles in isolation.
	Compute Class = iota
	// Memory-intensive: at least 20% LSU stall cycles in isolation.
	Memory
)

// Classify is the paper's rule: a kernel whose isolated run stalls its
// LSU in at least 20% of cycles is memory-intensive.
func Classify(lsuStallFrac float64) Class {
	if lsuStallFrac >= 0.20 {
		return Memory
	}
	return Compute
}

func (c Class) String() string {
	if c == Memory {
		return "M"
	}
	return "C"
}

// Desc describes one synthetic kernel.
type Desc struct {
	Name string
	// Class is the *expected* classification from the paper; the
	// characterization harness re-derives it from measured LSU stalls.
	Class Class

	// Static resources per thread block (determine occupancy and the
	// DRF shares used by SMK).
	ThreadsPerTB  int
	RegsPerThread int
	SmemPerTB     int

	// Instruction mix: the warp program is a loop of CPerM compute
	// instructions followed by one memory instruction.
	CPerM   int
	SFUFrac float64 // fraction of compute instructions using the SFU

	// Memory behaviour.
	ReqPerMinst int     // coalesced requests per memory instruction
	StoreFrac   float64 // fraction of memory instructions that are stores
	// DepDist is how many further instructions the warp may issue after
	// a load before depending on its value.
	DepDist int
	// MaxPendingLoads caps the warp's memory-level parallelism.
	MaxPendingLoads int

	// Locality model for generated line addresses.
	FootprintLines uint64  // per-warp streaming region, in cache lines
	ReuseProb      float64 // probability of re-referencing a recent line
	ReuseWindow    int     // recent-lines window size (<= 8)
	HotProb        float64 // probability of touching the kernel-wide hot region
	HotLines       uint64  // size of the hot region, in cache lines
	// WarmProb/WarmL2Frac define a kernel-wide region sized to miss in
	// the L1 but hit in the L2: this is how benchmarks like pf combine a
	// ~1.0 L1 miss rate with near-zero reservation failures (short L2
	// hit latency turns MSHRs over quickly). WarmL2Frac is a fraction of
	// the aggregate L2 capacity so behaviour is preserved on scaled
	// machines; each SM's warps walk the region with one cursor (Warm).
	WarmProb   float64
	WarmL2Frac float64
	Scatter    bool // true: requests hit random lines (uncoalesced)

	// InstrsPerWarp is the TB lifetime: a thread block finishes when
	// each of its warps has issued this many instructions, freeing its
	// resources for a fresh TB (kernels restart indefinitely, matching
	// the paper's 2M-cycle methodology).
	InstrsPerWarp uint64
}

// Validate reports descriptor inconsistencies against cfg.
func (d *Desc) Validate(cfg *config.Config) error {
	if d.Name == "" {
		return fmt.Errorf("kern: descriptor has no name")
	}
	if d.ThreadsPerTB <= 0 || d.ThreadsPerTB%cfg.WarpSize != 0 {
		return fmt.Errorf("kern %s: ThreadsPerTB (%d) must be a positive multiple of the warp size (%d)",
			d.Name, d.ThreadsPerTB, cfg.WarpSize)
	}
	if d.CPerM < 0 || d.ReqPerMinst <= 0 {
		return fmt.Errorf("kern %s: CPerM must be >= 0 and ReqPerMinst positive", d.Name)
	}
	if d.MaxPendingLoads <= 0 || d.MaxPendingLoads > 8 {
		return fmt.Errorf("kern %s: MaxPendingLoads must be in [1,8]", d.Name)
	}
	if d.ReuseWindow < 0 || d.ReuseWindow > 8 {
		return fmt.Errorf("kern %s: ReuseWindow must be in [0,8]", d.Name)
	}
	if d.FootprintLines == 0 {
		return fmt.Errorf("kern %s: FootprintLines must be positive", d.Name)
	}
	if d.InstrsPerWarp == 0 {
		return fmt.Errorf("kern %s: InstrsPerWarp must be positive", d.Name)
	}
	if d.MaxTBsPerSM(cfg) < 1 {
		return fmt.Errorf("kern %s: one TB does not fit in an SM", d.Name)
	}
	return nil
}

// WarpsPerTB returns the number of warps per thread block.
func (d *Desc) WarpsPerTB(warpSize int) int { return d.ThreadsPerTB / warpSize }

// MaxTBsPerSM returns the occupancy limit: the number of TBs of this
// kernel that fit in one SM given every static resource.
func (d *Desc) MaxTBsPerSM(cfg *config.Config) int {
	n := cfg.SM.MaxTBs
	if d.ThreadsPerTB > 0 {
		if byThreads := cfg.SM.MaxThreads / d.ThreadsPerTB; byThreads < n {
			n = byThreads
		}
	}
	if regs := d.ThreadsPerTB * d.RegsPerThread; regs > 0 {
		if byRegs := cfg.SM.Registers / regs; byRegs < n {
			n = byRegs
		}
	}
	if d.SmemPerTB > 0 {
		if bySmem := cfg.SM.SmemBytes / d.SmemPerTB; bySmem < n {
			n = bySmem
		}
	}
	return n
}

// Occupancy reports the fraction of each static resource used when n TBs
// of this kernel are resident (Table 2's RF_oc, SMEM_oc, Thread_oc,
// TB_occu columns).
type Occupancy struct {
	RF, Smem, Threads, TBs float64
}

// OccupancyAt computes occupancy for n resident TBs.
func (d *Desc) OccupancyAt(cfg *config.Config, n int) Occupancy {
	return Occupancy{
		RF:      float64(n*d.ThreadsPerTB*d.RegsPerThread) / float64(cfg.SM.Registers),
		Smem:    float64(n*d.SmemPerTB) / float64(cfg.SM.SmemBytes),
		Threads: float64(n*d.ThreadsPerTB) / float64(cfg.SM.MaxThreads),
		TBs:     float64(n) / float64(cfg.SM.MaxTBs),
	}
}

// DominantShare returns the DRF dominant share of n TBs of this kernel:
// the maximum across resources of the used fraction (used by SMK's
// static partitioning).
func (d *Desc) DominantShare(cfg *config.Config, n int) float64 {
	o := d.OccupancyAt(cfg, n)
	m := o.RF
	for _, v := range []float64{o.Smem, o.Threads, o.TBs} {
		if v > m {
			m = v
		}
	}
	return m
}

// InstrKind is the type of the next warp instruction.
type InstrKind uint8

const (
	ALU InstrKind = iota
	SFU
	MemLoad
	MemStore
)

// AddrState is the per-warp address-generation state.
//
// Re-reference draws come from the lines of the warp's *previous* memory
// instruction: at full occupancy thousands of other accesses interleave
// before the warp returns, so the lines are long evicted and the draw
// misses (thrashing); with few warps in flight (under memory instruction
// limiting and greedy-then-oldest scheduling) the distance shrinks to
// tens of accesses and the draws hit. This is the latent locality whose
// recovery the paper observes as the throttled kernel's improved L1D
// efficiency.
type AddrState struct {
	Base      uint64 // first line of this warp's streaming region (kernel-relative)
	StreamPos uint64
	prev      [8]uint64 // lines of the previous memory instruction
	prevN     int
	cur       [8]uint64 // lines of the instruction being generated
	curN      int
}

// InitAddrState seeds a warp's address state. seq must be unique per
// (kernel, TB instance, warp-in-TB) so fresh TBs stream fresh data.
// warm is the warm region's size in lines (see Warm).
func (d *Desc) InitAddrState(s *AddrState, seq uint64, warm uint64) {
	// Keep regions inside the kernel's address-space slice; see
	// mem.AddrSpace. The hot region occupies [0, HotLines), the warm
	// region the next warm lines; streaming regions start above both.
	const regionLimit = 1 << 26
	lo := d.HotLines + warm
	s.Base = lo + (seq*d.FootprintLines)%(regionLimit-d.FootprintLines-lo)
	s.StreamPos = 0
	s.prevN = 0
	s.curN = 0
}

// Warm is one (SM, kernel) pair's cursor through the kernel's warm
// region: every warm read of the kernel's warps on that SM takes line
// Pos and advances it mod Lines, so a warm line's reuse distance on the
// SM is exactly Lines warm reads. A warm read therefore misses the L1
// iff Lines exceeds the L1's line count, and hits the L2 while the
// co-runners' regions fit in it together.
type Warm struct {
	Lines uint64 // region size in lines (0: the kernel has none)
	Pos   uint64 // next line to read, in [0, Lines)
}

// NextKind returns the instruction kind at loop position pos and the
// next position. The loop body is CPerM compute instructions, then one
// global memory instruction. rng breaks the SFU/store choices.
func (d *Desc) NextKind(pos int, rng *xrand.Source) (InstrKind, int) {
	if pos < d.CPerM {
		if d.SFUFrac > 0 && rng.Bool(d.SFUFrac) {
			return SFU, pos + 1
		}
		return ALU, pos + 1
	}
	if d.StoreFrac > 0 && rng.Bool(d.StoreFrac) {
		return MemStore, 0
	}
	return MemLoad, 0
}

// GenLines fills buf[:ReqPerMinst] with the kernel-relative line indices
// of one memory instruction's coalesced requests and returns the count.
// Stores target the streaming output region only (they never pollute the
// hot/warm read regions — write-evict would otherwise destroy read
// locality, which real kernels avoid by writing to separate arrays).
// Warm reads take their lines from, and advance, the SM's cursor warm.
func (d *Desc) GenLines(s *AddrState, rng *xrand.Source, buf []uint64, isStore bool, warm *Warm) int {
	n := d.ReqPerMinst
	if n > len(buf) {
		n = len(buf)
	}
	if !isStore {
		// The new instruction's re-reference window is the previous
		// instruction's line set.
		s.prev, s.prevN = s.cur, s.curN
		s.curN = 0
	}
	for i := 0; i < n; i++ {
		var line uint64
		switch {
		case isStore:
			if d.Scatter {
				line = s.Base + rng.Uint64n(d.FootprintLines)
			} else {
				line = s.Base + s.StreamPos%d.FootprintLines
				s.StreamPos++
			}
			buf[i] = line
			continue
		case s.prevN > 0 && rng.Bool(d.ReuseProb):
			line = s.prev[rng.Intn(s.prevN)]
		case d.HotLines > 0 && rng.Bool(d.HotProb):
			line = rng.Uint64n(d.HotLines)
		case warm.Lines > 0 && rng.Bool(d.WarmProb):
			line = d.HotLines + warm.Pos
			warm.Pos = (warm.Pos + 1) % warm.Lines
		case d.Scatter:
			line = s.Base + rng.Uint64n(d.FootprintLines)
		default:
			line = s.Base + s.StreamPos%d.FootprintLines
			s.StreamPos++
		}
		buf[i] = line
		d.remember(s, line)
	}
	return n
}

// EffectiveWarmLines converts WarmL2Frac into lines for a machine with
// the given aggregate L2 line capacity.
func (d *Desc) EffectiveWarmLines(totalL2Lines int) uint64 {
	if d.WarmL2Frac <= 0 || totalL2Lines <= 0 {
		return 0
	}
	w := uint64(d.WarmL2Frac * float64(totalL2Lines))
	if w < 1 {
		w = 1
	}
	return w
}

func (d *Desc) remember(s *AddrState, line uint64) {
	if d.ReuseWindow == 0 || s.curN >= d.ReuseWindow || s.curN >= len(s.cur) {
		return
	}
	s.cur[s.curN] = line
	s.curN++
}
