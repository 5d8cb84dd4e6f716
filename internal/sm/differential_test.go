package sm_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/sm"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The differential tests drive two SMs built from one generated
// scenario in lockstep: one ticks with the production (indexed) issue
// stage, the other with the full-scan reference of reference_test.go.
// An SM meets the rest of the machine only through Deliver, the
// outbound queue, SetQuota and Drain, so the memory system is replaced
// by a seeded backend whose latencies and back-pressure are drawn per
// request: identical request streams get identical responses, and the
// first issue decision that differs shows up as a diverging trace.

// scenario is one generated workload for a single SM.
type scenario struct {
	cfg    config.Config
	descs  []*kern.Desc
	quota  []int
	scheme string
	bypass []bool
	cycles int64
	// reshapeEvery > 0 re-draws the TB quota and drains the SM at that
	// period, the way Dynamic Warped-Slicer moves between profiling
	// rounds.
	reshapeEvery int64
	memSeed      uint64
	latMin       int64
	latSpan      int
	stallProb    float64
	smkIPC       []float64
	smkEpoch     int64
	smilLimits   []int
}

var schemes = []string{"none", "smk-gate", "smil", "dmil", "qbmi", "qbmi+dmil"}

func drawScenario(seed uint64) scenario {
	rng := xrand.New(seed)
	cfg := config.Scaled(1)
	cfg.Seed = rng.Uint64()
	if rng.Bool(0.5) {
		cfg.SM.Scheduler = config.LRR
	}
	// One scheduler can hold all 96 warps: more than one mask word.
	cfg.SM.Schedulers = []int{1, 2, 4}[rng.Intn(3)]
	cfg.SM.ALULat = []int{1, 4, 10}[rng.Intn(3)]
	cfg.L1D.MSHRs = []int{8, 32, 128}[rng.Intn(3)]
	cfg.L1D.MissQueue = []int{2, 16}[rng.Intn(2)]
	sc := scenario{
		cfg:       cfg,
		scheme:    schemes[seed%uint64(len(schemes))], // every scheme within six consecutive seeds
		cycles:    int64(3000 + rng.Intn(3000)),
		memSeed:   rng.Uint64(),
		latMin:    int64(20 + rng.Intn(100)),
		latSpan:   1 + rng.Intn(400),
		stallProb: []float64{0, 0.3, 0.8}[rng.Intn(3)],
		smkEpoch:  int64(200 + rng.Intn(2000)),
	}
	nk := 2 + rng.Intn(2)
	for k := 0; k < nk; k++ {
		d := kern.RandomDesc(rng, &sc.cfg)
		// Short warps retire within the run, so finalizeWarp, TB
		// completion and re-dispatch are exercised too.
		if rng.Bool(0.5) {
			d.InstrsPerWarp = uint64(20 + rng.Intn(300))
		}
		sc.descs = append(sc.descs, &d)
		sc.quota = append(sc.quota, 1+rng.Intn(max(d.MaxTBsPerSM(&sc.cfg), 1)))
		sc.bypass = append(sc.bypass, rng.Bool(0.15))
		sc.smkIPC = append(sc.smkIPC, 0.05+rng.Float64())
		sc.smilLimits = append(sc.smilLimits, 1+rng.Intn(24))
	}
	if rng.Bool(0.4) {
		sc.reshapeEvery = int64(300 + rng.Intn(1500))
	}
	return sc
}

func (sc *scenario) String() string {
	return fmt.Sprintf("scheme=%s sched=%dx%d alulat=%d mshrs=%d kernels=%d quota=%v cycles=%d reshape=%d stall=%.1f",
		sc.scheme, sc.cfg.SM.Schedulers, sc.cfg.SM.Scheduler, sc.cfg.SM.ALULat, sc.cfg.L1D.MSHRs, len(sc.descs), sc.quota,
		sc.cycles, sc.reshapeEvery, sc.stallProb)
}

// policies builds fresh policy instances for one SM.
func (sc *scenario) policies() (sm.MemIssuePolicy, sm.Limiter, sm.IssueGate) {
	n := len(sc.descs)
	switch sc.scheme {
	case "smk-gate":
		return nil, nil, core.NewSMKGate(sc.smkIPC, sc.smkEpoch)
	case "smil":
		return nil, core.NewSMIL(sc.smilLimits), nil
	case "dmil":
		return nil, core.NewDMIL(n), nil
	case "qbmi":
		return core.NewQBMI(n, nil), nil, nil
	case "qbmi+dmil":
		return core.NewQBMI(n, nil), core.NewDMIL(n), nil
	}
	return nil, nil, nil
}

// backend stands in for everything below the L1: it takes at most one
// outbound request per cycle unless it is stalled, answers each load
// after a drawn latency and swallows stores.
type backend struct {
	rng     *xrand.Source
	sc      *scenario
	pending []inflight
}

type inflight struct {
	req *mem.Request
	at  int64
}

func (b *backend) tick(s *sm.SM, cycle int64) {
	keep := b.pending[:0]
	for _, e := range b.pending {
		if e.at <= cycle {
			s.Deliver(e.req, cycle)
		} else {
			keep = append(keep, e)
		}
	}
	b.pending = keep
}

func (b *backend) drain(s *sm.SM, cycle int64) {
	if b.sc.stallProb > 0 && b.rng.Bool(b.sc.stallProb) {
		return
	}
	r := s.PeekOutbound()
	if r == nil {
		return
	}
	s.PopOutbound()
	if r.Kind == mem.Load {
		b.pending = append(b.pending, inflight{r, cycle + b.sc.latMin + int64(b.rng.Intn(b.sc.latSpan))})
	}
}

// runScenario simulates the scenario on one SM, with the reference issue
// stage when reference is set, checking the SM's invariants every cycle.
// It returns the rendered trace, a digest of every counter and the most
// warps any one scheduler held.
func runScenario(t testing.TB, sc *scenario, reference bool) (string, string, int) {
	t.Helper()
	if err := sm.Validate(&sc.cfg, sc.descs); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	mp, lim, gate := sc.policies()
	s := sm.New(0, &sc.cfg, sc.descs, sc.quota, mp, lim, gate, sc.cfg.Seed)
	pool := &mem.Pool{}
	s.Pool, s.L1.Pool = pool, pool
	s.L1.SetBypass(sc.bypass)
	s.Trace = trace.New(1 << 18)
	s.Trace.EnsureShards(1)
	be := &backend{rng: xrand.New(sc.memSeed), sc: sc}
	reshape := xrand.New(sc.memSeed ^ 0x5eed)
	widest := 0
	for cycle := int64(0); cycle < sc.cycles; cycle++ {
		be.tick(s, cycle)
		if reference {
			s.TickReference(cycle)
		} else {
			s.Tick(cycle)
		}
		be.drain(s, cycle)
		widest = max(widest, s.WidestScheduler())
		if err := s.CheckInvariants(cycle); err != nil {
			t.Fatalf("reference=%v: %v\n%s", reference, err, sc)
		}
		if sc.reshapeEvery > 0 && (cycle+1)%sc.reshapeEvery == 0 {
			q := make([]int, len(sc.descs))
			for k, d := range sc.descs {
				q[k] = reshape.Intn(max(d.MaxTBsPerSM(&sc.cfg), 1) + 1)
			}
			s.SetQuota(q)
			s.Drain()
		}
	}
	digest := fmt.Sprintf("%+v l1=%+v events=%d", s.K, s.L1.Stats, s.Trace.Total())
	return trace.Render(s.Trace.Snapshot()), digest, widest
}

// checkScenario runs the scenario drawn from seed both ways and returns
// it with the most warps one scheduler held.
func checkScenario(t testing.TB, seed uint64) (scenario, int) {
	t.Helper()
	sc := drawScenario(seed)
	refTrace, refDigest, _ := runScenario(t, &sc, true)
	gotTrace, gotDigest, widest := runScenario(t, &sc, false)
	if gotDigest != refDigest {
		t.Fatalf("seed %d: counters diverge from the full-scan reference\n%s\nreference: %s\nindexed:   %s",
			seed, &sc, refDigest, gotDigest)
	}
	if gotTrace != refTrace {
		t.Fatalf("seed %d: trace diverges from the full-scan reference\n%s", seed, &sc)
	}
	return sc, widest
}

// TestIndexedIssueMatchesFullScan is the seeded differential test: 42
// generated scenarios covering 2- and 3-kernel mixes of random kernels
// (SFU, store and pending-load parameters all drawn), 1,
// 2 and 4 schedulers, GTO and LRR, an issue gate (SMK), static and
// dynamic limiters, QBMI, L1 bypass, tight MSHRs, memory back-pressure
// and periodic quota changes with Drain. The corpus must reach every
// scheduler count and the masks' second word.
func TestIndexedIssueMatchesFullScan(t *testing.T) {
	n := uint64(42)
	if testing.Short() {
		n = 12
	}
	geometries := map[int]int{}
	widest := 0
	for seed := uint64(1); seed <= n; seed++ {
		sc, w := checkScenario(t, seed)
		geometries[sc.cfg.SM.Schedulers]++
		widest = max(widest, w)
	}
	for _, schedulers := range []int{1, 2, 4} {
		if geometries[schedulers] == 0 {
			t.Errorf("no scenario in seeds 1..%d has %d schedulers", n, schedulers)
		}
	}
	if widest <= 64 {
		t.Errorf("no scheduler ever held more than %d warps in seeds 1..%d; the second mask word went untested", widest, n)
	}
}

// FuzzIndexedIssueMatchesFullScan explores scenario seeds beyond the
// fixed 42 (CI runs it for a few seconds; see the fuzz-smoke step). The
// corpus starts from every scheduler count under both policies: seeds
// 8 (LRR) and 39 (GTO) put 95 and 96 warps on a single scheduler, 37
// does so behind the SMK gate, 4 and 27 have two schedulers.
func FuzzIndexedIssueMatchesFullScan(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0xdeadbeef, 4, 8, 27, 37, 39} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkScenario(t, seed) })
}
