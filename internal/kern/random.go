// Random kernel descriptors for property-based testing: the simulator
// must stay deterministic, deadlock-free and conservation-correct for
// ANY valid descriptor, not just the thirteen calibrated benchmarks.

package kern

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/xrand"
)

// RandomDesc draws a valid descriptor from rng. The distributions cover
// the corners: tiny and huge TBs, extreme coalescing, all-store-ish
// mixes, every locality mode.
func RandomDesc(rng *xrand.Source, cfg *config.Config) Desc {
	threads := (rng.Intn(16) + 1) * cfg.WarpSize // 32..512
	d := Desc{
		Name:            fmt.Sprintf("rnd%d", rng.Intn(1<<20)),
		ThreadsPerTB:    threads,
		RegsPerThread:   rng.Intn(64) + 1,
		SmemPerTB:       rng.Intn(5) * 4096,
		CPerM:           rng.Intn(12),
		SFUFrac:         rng.Float64() * 0.5,
		ReqPerMinst:     rng.Intn(31) + 1,
		StoreFrac:       rng.Float64() * 0.5,
		DepDist:         rng.Intn(32),
		MaxPendingLoads: rng.Intn(8) + 1,
		FootprintLines:  uint64(rng.Intn(16384) + 16),
		ReuseProb:       rng.Float64() * 0.8,
		ReuseWindow:     rng.Intn(9),
		HotProb:         rng.Float64() * 0.5,
		HotLines:        uint64(rng.Intn(64)),
		WarmProb:        rng.Float64(),
		WarmL2Frac:      rng.Float64() * 0.8,
		Scatter:         rng.Bool(0.3),
		InstrsPerWarp:   uint64(rng.Intn(4000) + 50),
	}
	if d.HotLines == 0 {
		d.HotProb = 0
	}
	if d.ReuseWindow == 0 {
		d.ReuseProb = 0
	}
	// Ensure at least one TB fits.
	for d.MaxTBsPerSM(cfg) < 1 {
		switch {
		case d.ThreadsPerTB > cfg.WarpSize:
			d.ThreadsPerTB -= cfg.WarpSize
		case d.RegsPerThread > 1:
			d.RegsPerThread /= 2
		default:
			d.SmemPerTB /= 2
		}
	}
	return d
}
