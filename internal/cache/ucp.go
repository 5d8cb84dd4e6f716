// UCP: utility-based cache partitioning (Qureshi & Patt, MICRO 2006),
// applied to the L1 D-cache per the paper's Section 3.1 study.
//
// Each kernel gets a UMON: a shadow tag directory with the geometry of
// the full cache and an LRU stack-distance hit histogram. The lookahead
// algorithm periodically converts the histograms into a way partition
// that maximizes total marginal utility.

package cache

import "repro/internal/config"

// UMON is a set of per-kernel shadow tag arrays with stack-distance hit
// counters. As in the UCP paper, the monitor observes every access the
// kernel makes as if it owned the whole cache.
type UMON struct {
	ways     int
	setMask  uint64
	setShift uint // log2(sets), as in Cache.setIndex
	xor      bool
	// tags[k][set*ways+w], ordered most- to least-recently used per set.
	tags  [][]uint64
	valid [][]bool
	// wayHits[k][d]: hits at stack distance d (0 = MRU).
	wayHits  [][]uint64
	accesses []uint64
}

// NewUMON builds a monitor for numKernels kernels over cfg's geometry.
func NewUMON(cfg config.Cache, numKernels int) *UMON {
	sets := cfg.Sets()
	u := &UMON{
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: log2(sets),
		xor:      cfg.XORIndex,
		tags:     make([][]uint64, numKernels),
		valid:    make([][]bool, numKernels),
		wayHits:  make([][]uint64, numKernels),
		accesses: make([]uint64, numKernels),
	}
	for k := 0; k < numKernels; k++ {
		u.tags[k] = make([]uint64, sets*cfg.Ways)
		u.valid[k] = make([]bool, sets*cfg.Ways)
		u.wayHits[k] = make([]uint64, cfg.Ways)
	}
	return u
}

func (u *UMON) setIndex(lineAddr uint64) int {
	if !u.xor {
		return int(lineAddr & u.setMask)
	}
	h := lineAddr ^ (lineAddr >> u.setShift) ^ (lineAddr >> (2 * u.setShift))
	return int(h & u.setMask)
}

// Access records one access by kernel k in its shadow directory.
func (u *UMON) Access(k int, lineAddr uint64) {
	if k >= len(u.tags) {
		return
	}
	u.accesses[k]++
	set := u.setIndex(lineAddr)
	base := set * u.ways
	tags := u.tags[k][base : base+u.ways]
	valid := u.valid[k][base : base+u.ways]
	// Search the LRU stack.
	for d := 0; d < u.ways; d++ {
		if valid[d] && tags[d] == lineAddr {
			u.wayHits[k][d]++
			// Move to MRU.
			copy(tags[1:], tags[:d])
			copy(valid[1:], valid[:d])
			tags[0] = lineAddr
			valid[0] = true
			return
		}
	}
	// Miss: insert at MRU, shifting everything down (LRU falls off).
	copy(tags[1:], tags[:u.ways-1])
	copy(valid[1:], valid[:u.ways-1])
	tags[0] = lineAddr
	valid[0] = true
}

// hitsWithWays returns the hits kernel k would have obtained with n ways
// (cumulative stack-distance histogram).
func (u *UMON) hitsWithWays(k, n int) uint64 {
	var h uint64
	for d := 0; d < n && d < u.ways; d++ {
		h += u.wayHits[k][d]
	}
	return h
}

// Lookahead computes a way partition over the monitored kernels using
// the UCP lookahead algorithm: repeatedly grant the block of ways with
// the highest marginal utility per way. Every kernel is guaranteed at
// least minWays. The returned slice sums to the cache associativity.
func (u *UMON) Lookahead(minWays int) []int {
	n := len(u.tags)
	alloc := make([]int, n)
	remaining := u.ways
	if minWays < 1 {
		minWays = 1
	}
	for k := 0; k < n; k++ {
		alloc[k] = minWays
		remaining -= minWays
	}
	if remaining < 0 {
		// More kernels than ways: fall back to as even as possible.
		for k := range alloc {
			alloc[k] = u.ways / n
			if k < u.ways%n {
				alloc[k]++
			}
			if alloc[k] == 0 {
				alloc[k] = 1
			}
		}
		return alloc
	}
	for remaining > 0 {
		bestK, bestWays := -1, 1
		bestMU := -1.0
		for k := 0; k < n; k++ {
			base := u.hitsWithWays(k, alloc[k])
			for w := 1; w <= remaining; w++ {
				mu := float64(u.hitsWithWays(k, alloc[k]+w)-base) / float64(w)
				if mu > bestMU {
					bestMU, bestK, bestWays = mu, k, w
				}
			}
		}
		if bestK < 0 {
			break
		}
		alloc[bestK] += bestWays
		remaining -= bestWays
	}
	// Distribute any leftover (all-zero utility) evenly.
	for k := 0; remaining > 0; k = (k + 1) % n {
		alloc[k]++
		remaining--
	}
	return alloc
}

// ResetCounters halves the hit counters, aging the histogram between
// repartition intervals (as in the UCP paper's periodic decay).
func (u *UMON) ResetCounters() {
	for k := range u.wayHits {
		for d := range u.wayHits[k] {
			u.wayHits[k][d] /= 2
		}
		u.accesses[k] /= 2
	}
}

// Accesses returns the monitored access count for kernel k.
func (u *UMON) Accesses(k int) uint64 { return u.accesses[k] }
