package sm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/stats"
)

// tinyConfig returns a 1-SM machine with small structures so tests can
// reason about exact resource counts.
func tinyConfig() config.Config {
	c := config.Scaled(1)
	return c
}

// computeKernel never touches memory-adjacent structures heavily.
func computeKernel() kern.Desc {
	return kern.Desc{
		Name: "comp", ThreadsPerTB: 64, RegsPerThread: 16, SmemPerTB: 0,
		CPerM: 30, SFUFrac: 0, ReqPerMinst: 1, StoreFrac: 0,
		DepDist: 30, MaxPendingLoads: 1,
		FootprintLines: 64, ReuseProb: 0, ReuseWindow: 0,
		WarmProb: 0, InstrsPerWarp: 500,
	}
}

func memKernel() kern.Desc {
	return kern.Desc{
		Name: "memk", ThreadsPerTB: 64, RegsPerThread: 16, SmemPerTB: 0,
		CPerM: 1, SFUFrac: 0, ReqPerMinst: 4, StoreFrac: 0,
		DepDist: 9, MaxPendingLoads: 4,
		FootprintLines: 4096, ReuseProb: 0, ReuseWindow: 0,
		WarmProb: 0, InstrsPerWarp: 500,
	}
}

func newSM(t *testing.T, descs []*kern.Desc, quota []int) (*SM, *config.Config) {
	t.Helper()
	cfg := tinyConfig()
	if err := Validate(&cfg, descs); err != nil {
		t.Fatal(err)
	}
	s := New(0, &cfg, descs, quota, nil, nil, nil, 1)
	return s, &cfg
}

// drainMem services the SM's outbound traffic with a perfect memory:
// every fetch returns after lat cycles.
type perfectMem struct {
	pending []struct {
		req *mem.Request
		at  int64
	}
	lat   int64
	lines []uint64 // every fetched line, in the order the SM sent them
}

func (p *perfectMem) tick(s *SM, cycle int64) {
	for {
		r := s.PeekOutbound()
		if r == nil {
			break
		}
		s.PopOutbound()
		p.lines = append(p.lines, r.LineAddr)
		if r.Kind == mem.Load {
			p.pending = append(p.pending, struct {
				req *mem.Request
				at  int64
			}{r, cycle + p.lat})
		}
	}
	keep := p.pending[:0]
	for _, e := range p.pending {
		if e.at <= cycle {
			s.Deliver(e.req, cycle)
		} else {
			keep = append(keep, e)
		}
	}
	p.pending = keep
}

func run(s *SM, pm *perfectMem, cycles int64) {
	for c := int64(0); c < cycles; c++ {
		pm.tick(s, c)
		s.Tick(c)
	}
}

func TestTBDispatchRespectsQuota(t *testing.T) {
	d := computeKernel()
	s, _ := newSM(t, []*kern.Desc{&d}, []int{3})
	pm := &perfectMem{lat: 50}
	run(s, pm, 100)
	if got := s.TBCount(0); got != 3 {
		t.Fatalf("resident TBs = %d, want quota 3", got)
	}
}

func TestTBDispatchRespectsResources(t *testing.T) {
	d := computeKernel()
	d.ThreadsPerTB = 1024 // 3 TBs max by threads (3072)
	s, _ := newSM(t, []*kern.Desc{&d}, []int{16})
	pm := &perfectMem{lat: 50}
	run(s, pm, 100)
	if got := s.TBCount(0); got != 3 {
		t.Fatalf("resident TBs = %d, want 3 (thread-limited)", got)
	}
}

func TestComputeKernelMakesProgress(t *testing.T) {
	d := computeKernel()
	s, _ := newSM(t, []*kern.Desc{&d}, []int{8})
	pm := &perfectMem{lat: 50}
	run(s, pm, 5000)
	if s.K[0].Instrs() == 0 {
		t.Fatal("no instructions issued")
	}
	ipc := float64(s.K[0].Instrs()) / 5000
	if ipc < 1 {
		t.Fatalf("compute kernel IPC = %v, want >= 1", ipc)
	}
	if s.K[0].ALUInstrs == 0 {
		t.Fatal("no ALU instructions")
	}
}

func TestTBsCompleteAndRedispatch(t *testing.T) {
	d := computeKernel()
	d.InstrsPerWarp = 100
	s, _ := newSM(t, []*kern.Desc{&d}, []int{2})
	pm := &perfectMem{lat: 20}
	run(s, pm, 20000)
	if s.K[0].TBsDone == 0 {
		t.Fatal("no TBs completed")
	}
	if got := s.TBCount(0); got != 2 {
		t.Fatalf("TB slots must be refilled after completion, resident=%d", got)
	}
}

func TestIssueNeverExceedsSchedulers(t *testing.T) {
	d := computeKernel()
	d.CPerM = 5
	d.DepDist = 5
	dm := memKernel()
	s, cfg := newSM(t, []*kern.Desc{&d, &dm}, []int{4, 4})
	pm := &perfectMem{lat: 60}
	var prev uint64
	for c := int64(0); c < 3000; c++ {
		pm.tick(s, c)
		s.Tick(c)
		total := s.K[0].Instrs() + s.K[1].Instrs()
		if total-prev > uint64(cfg.SM.Schedulers) {
			t.Fatalf("cycle %d issued %d instructions (> %d schedulers)",
				c, total-prev, cfg.SM.Schedulers)
		}
		prev = total
	}
}

func TestMemoryInstructionsGenerateRequests(t *testing.T) {
	d := memKernel()
	s, _ := newSM(t, []*kern.Desc{&d}, []int{4})
	pm := &perfectMem{lat: 40}
	run(s, pm, 3000)
	if s.K[0].MemInstrs == 0 {
		t.Fatal("no memory instructions")
	}
	reqPerM := float64(s.L1.Stats[0].Accesses) / float64(s.K[0].MemInstrs)
	if reqPerM < 3.5 || reqPerM > 4.5 {
		t.Fatalf("requests per memory instruction = %v, want ~4", reqPerM)
	}

	// Warm reads: all of a kernel's warps on an SM share one cursor,
	// which SM ID starts ID·W/NumSMs into the W-line region. With W above
	// the L1's line count every warm read misses, so the SM fetches
	// consecutive warm lines mod W: a warm line's reuse distance is
	// exactly W warm reads.
	cfg := config.Scaled(4)
	d.WarmProb, d.WarmL2Frac = 1, 0.125
	w := d.EffectiveWarmLines(cfg.L2.SizeBytes / cfg.L2.LineBytes * cfg.NumMemParts)
	if l1Lines := uint64(cfg.L1D.SizeBytes / cfg.L1D.LineBytes); w <= l1Lines {
		t.Fatalf("warm region %d lines fits the %d-line L1", w, l1Lines)
	}
	s = New(3, &cfg, []*kern.Desc{&d}, []int{4}, nil, nil, nil, 1)
	pm = &perfectMem{lat: 40}
	run(s, pm, 3000)
	if uint64(len(pm.lines)) <= w {
		t.Fatalf("%d warm fetches never wrap the %d-line region", len(pm.lines), w)
	}
	start := 3 * w / 4
	for i, line := range pm.lines {
		if want := s.space.LineOf(0, d.HotLines+(start+uint64(i))%w); line != want {
			t.Fatalf("warm fetch %d is line %d, want %d", i, line, want)
		}
	}
}

func TestInflightAccountingReturnsToZero(t *testing.T) {
	d := memKernel()
	d.InstrsPerWarp = 40
	s, _ := newSM(t, []*kern.Desc{&d}, []int{1})
	pm := &perfectMem{lat: 30}
	run(s, pm, 2000)
	// Stop dispatching: drain by setting quota to zero and waiting.
	s.SetQuota([]int{0})
	for c := int64(2000); c < 12000; c++ {
		pm.tick(s, c)
		s.Tick(c)
	}
	if got := s.Inflight(0); got != 0 {
		t.Fatalf("in-flight accesses = %d after drain, want 0", got)
	}
	if got := s.TBCount(0); got != 0 {
		t.Fatalf("TBs resident after drain = %d, want 0", got)
	}
}

// blockAll denies all memory issue for kernel 1.
type blockAll struct{}

func (blockAll) Allow(kernel, inflight int) bool   { return kernel != 1 }
func (blockAll) OnRequest(kernel int)              {}
func (blockAll) OnRsFail(kernel int)               {}
func (blockAll) NoteInflight(kernel, inflight int) {}
func (blockAll) Tick(cycle int64)                  {}

func TestLimiterBlocksMemoryIssue(t *testing.T) {
	d0 := computeKernel()
	d1 := memKernel()
	cfg := tinyConfig()
	descs := []*kern.Desc{&d0, &d1}
	s := New(0, &cfg, descs, []int{4, 4}, nil, blockAll{}, nil, 1)
	pm := &perfectMem{lat: 40}
	run(s, pm, 3000)
	if s.K[1].MemInstrs != 0 {
		t.Fatalf("limited kernel issued %d memory instructions", s.K[1].MemInstrs)
	}
	if s.K[0].MemInstrs == 0 {
		t.Fatal("unlimited kernel should still issue")
	}
}

// preferKernel always picks a given kernel when it is a candidate.
type preferKernel struct {
	want   int
	issues []int
}

func (p *preferKernel) Pick(kernels []int) int {
	for i, k := range kernels {
		if k == p.want {
			return i
		}
	}
	return 0
}
func (p *preferKernel) OnIssue(kernel, reqs int) { p.issues = append(p.issues, kernel) }

func TestMemPolicyArbitratesIssue(t *testing.T) {
	d0 := memKernel()
	d1 := memKernel()
	d1.Name = "memk2"
	cfg := tinyConfig()
	descs := []*kern.Desc{&d0, &d1}
	pol := &preferKernel{want: 1}
	s := New(0, &cfg, descs, []int{4, 4}, pol, nil, nil, 1)
	pm := &perfectMem{lat: 40}
	run(s, pm, 3000)
	if len(pol.issues) == 0 {
		t.Fatal("policy never consulted")
	}
	k1 := 0
	for _, k := range pol.issues {
		if k == 1 {
			k1++
		}
	}
	// Kernel 1 must win clearly more often (it is preferred whenever
	// both are candidates; kernel 0 still issues when alone).
	if frac := float64(k1) / float64(len(pol.issues)); frac < 0.6 {
		t.Fatalf("preferred kernel won only %.2f of issues", frac)
	}
}

// pickFirst is a memory-issue policy that always takes candidate 0.
type pickFirst struct{}

func (pickFirst) Pick(kernels []int) int   { return 0 }
func (pickFirst) OnIssue(kernel, reqs int) {}

// TestUnmanagedMemIssueIsOldestFirst pins what runs when no memory-issue
// policy is installed: the globally oldest ready memory warp issues, not
// the first one the scan meets. Two all-load kernels: kernel 0's four
// warps launch in cycle 0 onto schedulers 0..3 and its oldest issues at
// once, blocking behind its load; kernel 1's single warp launches in
// cycle 1 behind it on scheduler 0. In cycle 1 the scan therefore meets
// the youngest warp first (scheduler 0), then kernel 0's older warps
// from scheduler 1 on. Unmanaged, scheduler 1's warp issues; a policy
// that takes candidate 0 issues the young one, so the scenario tells the
// two orders apart.
func TestUnmanagedMemIssueIsOldestFirst(t *testing.T) {
	for _, tc := range []struct {
		name      string
		policy    MemIssuePolicy
		wantSched int
		wantMem   [2]uint64
	}{
		{"unmanaged", nil, 1, [2]uint64{2, 0}},
		{"NopMemPolicy", NopMemPolicy{}, 1, [2]uint64{2, 0}},
		{"first-met policy", pickFirst{}, 0, [2]uint64{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := memKernel()
			old.CPerM, old.ReqPerMinst, old.DepDist, old.ThreadsPerTB = 0, 1, 1, 128
			young := old
			young.Name, young.ThreadsPerTB = "young", 32
			cfg := tinyConfig()
			descs := []*kern.Desc{&old, &young}
			if err := Validate(&cfg, descs); err != nil {
				t.Fatal(err)
			}
			// New resolves the unmanaged choice; SetPolicies must redo it.
			s := New(0, &cfg, descs, []int{1, 1}, nil, nil, nil, 1)
			s.SetPolicies(tc.policy, nil, nil)
			s.Tick(0)
			s.Tick(1)
			if got := [2]uint64{s.K[0].MemInstrs, s.K[1].MemInstrs}; got != tc.wantMem {
				t.Fatalf("memory instructions issued per kernel = %v, want %v", got, tc.wantMem)
			}
			if s.scheds[tc.wantSched].issuedAt != 1 {
				t.Fatalf("scheduler %d did not issue in cycle 1", tc.wantSched)
			}
		})
	}
}

// denyGate blocks all issue of kernel 0.
type denyGate struct{}

func (denyGate) CanIssue(kernel int) bool { return kernel != 0 }
func (denyGate) OnIssue(kernel int)       {}
func (denyGate) Tick(cycle int64)         {}

func TestGateBlocksAllIssue(t *testing.T) {
	d0 := computeKernel()
	d1 := computeKernel()
	d1.Name = "comp2"
	cfg := tinyConfig()
	descs := []*kern.Desc{&d0, &d1}
	s := New(0, &cfg, descs, []int{2, 2}, nil, nil, denyGate{}, 1)
	pm := &perfectMem{lat: 40}
	run(s, pm, 2000)
	if s.K[0].Instrs() != 0 {
		t.Fatalf("gated kernel issued %d instructions", s.K[0].Instrs())
	}
	if s.K[1].Instrs() == 0 {
		t.Fatal("ungated kernel should issue")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, uint64) {
		d0 := computeKernel()
		d1 := memKernel()
		cfg := tinyConfig()
		descs := []*kern.Desc{&d0, &d1}
		s := New(0, &cfg, descs, []int{4, 4}, nil, nil, nil, 7)
		pm := &perfectMem{lat: 45}
		run(s, pm, 4000)
		return s.K[0].Instrs(), s.K[1].Instrs()
	}
	a0, a1 := runOnce()
	b0, b1 := runOnce()
	if a0 != b0 || a1 != b1 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a0, a1, b0, b1)
	}
}

// TestSeriesCollection: the machine's 1 K-cycle series is the growth of
// each SM's counters between multiples of stats.SeriesInterval, sampled
// before the SM ticks. Sampled that way on one SM, the buckets never
// shrink, no bucket issues more than the schedulers can in an interval,
// and the buckets sum to the kernel's Instrs and L1D accesses.
func TestSeriesCollection(t *testing.T) {
	d := memKernel()
	cfg := tinyConfig()
	descs := []*kern.Desc{&d}
	s := New(0, &cfg, descs, []int{4}, nil, nil, nil, 1)
	pm := &perfectMem{lat: 30}
	const cycles = 5000
	var iss, acc []uint64
	var lastIss, lastAcc uint64
	for c := int64(0); c < cycles; c++ {
		if c%stats.SeriesInterval == 0 && c > 0 {
			iss = append(iss, s.K[0].Instrs()-lastIss)
			acc = append(acc, s.L1.Stats[0].Accesses-lastAcc)
			lastIss, lastAcc = s.K[0].Instrs(), s.L1.Stats[0].Accesses
		}
		pm.tick(s, c)
		s.Tick(c)
	}
	iss = append(iss, s.K[0].Instrs()-lastIss)
	acc = append(acc, s.L1.Stats[0].Accesses-lastAcc)
	if len(iss) != cycles/stats.SeriesInterval+1 {
		t.Fatalf("%d buckets, want %d", len(iss), cycles/stats.SeriesInterval+1)
	}
	var sumIss, sumAcc uint64
	for b := range iss {
		if iss[b] > uint64(cfg.SM.Schedulers*stats.SeriesInterval) {
			t.Fatalf("bucket %d issued %d instructions (> %d schedulers x %d cycles)",
				b, iss[b], cfg.SM.Schedulers, stats.SeriesInterval)
		}
		sumIss += iss[b]
		sumAcc += acc[b]
	}
	if sumIss != s.K[0].Instrs() || sumIss == 0 {
		t.Fatalf("series total %d != issued %d", sumIss, s.K[0].Instrs())
	}
	if sumAcc != s.L1.Stats[0].Accesses || sumAcc == 0 {
		t.Fatalf("series accesses %d != L1D accesses %d", sumAcc, s.L1.Stats[0].Accesses)
	}
}

func TestValidateRejectsOversizedCoalescing(t *testing.T) {
	cfg := tinyConfig()
	d := computeKernel()
	d.ReqPerMinst = 33
	if err := Validate(&cfg, []*kern.Desc{&d}); err == nil {
		t.Fatal("ReqPerMinst > 32 must be rejected")
	}
}

func TestWarpBarrierBlocksDependentInstr(t *testing.T) {
	// DepDist 1 with CPerM 2: after a load, one compute issues, then the
	// warp must block until the load returns. With a huge latency the
	// warp wedges, bounding issued instructions.
	d := kern.Desc{
		Name: "dep", ThreadsPerTB: 32, RegsPerThread: 16,
		CPerM: 2, ReqPerMinst: 1, DepDist: 1, MaxPendingLoads: 1,
		FootprintLines: 64, InstrsPerWarp: 100,
	}
	cfg := tinyConfig()
	s := New(0, &cfg, []*kern.Desc{&d}, []int{1}, nil, nil, nil, 1)
	pm := &perfectMem{lat: 1 << 30} // loads never return
	run(s, pm, 2000)
	// One warp: issues up to the first load + DepDist instructions, then
	// stalls forever. Loop: C C M -> after M, 1 more instr then block.
	if s.K[0].Instrs() > 8 {
		t.Fatalf("warp issued %d instructions past an unresolved load", s.K[0].Instrs())
	}
	if s.K[0].Instrs() == 0 {
		t.Fatal("warp never started")
	}
}

// TestGTOGreedierThanLRR: greedy-then-oldest runs one warp ahead while
// loose round-robin spreads issue evenly, so the spread of per-warp
// progress at a snapshot must be wider under GTO.
func TestGTOGreedierThanLRR(t *testing.T) {
	spread := func(policy config.SchedulerPolicy) uint64 {
		cfg := tinyConfig()
		cfg.SM.Scheduler = policy
		// Single-cycle ALU latency keeps every warp ready every cycle,
		// exposing the pure scheduling-order difference.
		cfg.SM.ALULat = 1
		d := computeKernel()
		d.InstrsPerWarp = 1 << 30 // never finish: measure steady progress
		descs := []*kern.Desc{&d}
		s := New(0, &cfg, descs, []int{4}, nil, nil, nil, 1)
		pm := &perfectMem{lat: 40}
		run(s, pm, 3000)
		var lo, hi uint64 = ^uint64(0), 0
		for i := range s.warps {
			w := &s.warps[i]
			if !w.Active {
				continue
			}
			if w.IssuedInstrs < lo {
				lo = w.IssuedInstrs
			}
			if w.IssuedInstrs > hi {
				hi = w.IssuedInstrs
			}
		}
		return hi - lo
	}
	gto := spread(config.GTO)
	lrr := spread(config.LRR)
	if gto <= lrr {
		t.Fatalf("GTO progress spread (%d) should exceed LRR's (%d)", gto, lrr)
	}
}

func TestDrainReleasesResources(t *testing.T) {
	d := computeKernel()
	s, _ := newSM(t, []*kern.Desc{&d}, []int{4})
	pm := &perfectMem{lat: 30}
	run(s, pm, 500)
	if s.TBCount(0) == 0 {
		t.Fatal("setup: no TBs resident")
	}
	s.SetQuota([]int{0})
	s.Drain()
	// Give outstanding loads time to return and finalize warps.
	for c := int64(500); c < 3000; c++ {
		pm.tick(s, c)
		s.Tick(c)
	}
	if got := s.TBCount(0); got != 0 {
		t.Fatalf("TBs resident after drain = %d", got)
	}
	if got := s.Inflight(0); got != 0 {
		t.Fatalf("in-flight accesses after drain = %d", got)
	}
}
