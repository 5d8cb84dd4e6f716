package sm

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/mem"
)

// Directed cases for the issue index, each aimed at one place where
// event-maintained masks and a wake wheel could go wrong and the
// generated scenarios of differential_test.go would only get there by
// luck. All but the snapshot case run an indexed SM and a full-scan
// reference SM (reference_test.go) in lockstep, compare the complete
// scheduling state after every cycle and check both SMs' invariants, so
// a failure names the first cycle that went wrong.

// mixKernel issues ALU and SFU instructions between loads, so every
// sleep length and every port is in play.
func mixKernel() kern.Desc {
	return kern.Desc{
		Name: "mix", ThreadsPerTB: 64, RegsPerThread: 16, SmemPerTB: 1024,
		CPerM: 6, SFUFrac: 0.3,
		ReqPerMinst: 2, DepDist: 4, MaxPendingLoads: 2,
		FootprintLines: 512, InstrsPerWarp: 120,
	}
}

// schedState renders everything the issue stages decide or depend on.
func schedState(s *SM) string {
	out := fmt.Sprintf("%+v l1=%+v inflight=%v\n", s.K, s.L1.Stats, s.inflight)
	for si := range s.scheds {
		out += fmt.Sprintf("  sched %d: %+v\n", si, s.scheds[si])
	}
	return out
}

// pair is an indexed SM and its full-scan twin, each with its own memory.
type pair struct {
	t        *testing.T
	idx, ref *SM
	pmI, pmR *perfectMem
}

func newPair(t *testing.T, cfg *config.Config, descs []*kern.Desc, quota []int) *pair {
	t.Helper()
	if err := Validate(cfg, descs); err != nil {
		t.Fatal(err)
	}
	return &pair{
		t:   t,
		idx: New(0, cfg, descs, quota, nil, nil, nil, 1),
		ref: New(0, cfg, descs, quota, nil, nil, nil, 1),
		pmI: &perfectMem{lat: 60},
		pmR: &perfectMem{lat: 60},
	}
}

// step runs one cycle on both SMs and requires identical state and
// clean invariants afterwards.
func (p *pair) step(cycle int64) {
	p.t.Helper()
	p.pmI.tick(p.idx, cycle)
	p.idx.Tick(cycle)
	p.pmR.tick(p.ref, cycle)
	p.ref.TickReference(cycle)
	if got, want := schedState(p.idx), schedState(p.ref); got != want {
		p.t.Fatalf("cycle %d: indexed issue diverged from the full scan\nindexed:\n%sfull scan:\n%s", cycle, got, want)
	}
	for _, s := range []*SM{p.idx, p.ref} {
		if err := s.CheckInvariants(cycle); err != nil {
			p.t.Fatal(err)
		}
	}
}

// sleepers counts resident warps whose wake is still pending.
func sleepers(s *SM) int {
	n := 0
	for si := range s.scheds {
		for _, slot := range s.scheds[si].warps {
			if s.warps[slot].ReadyAt > s.woken {
				n++
			}
		}
	}
	return n
}

// TestLRRRotationWrapsAcrossMaskWords: one scheduler holding more than
// 64 warps under loose round-robin, so the rotation pointer walks off
// the end of the second mask word and the search must wrap to the first.
func TestLRRRotationWrapsAcrossMaskWords(t *testing.T) {
	cfg := tinyConfig()
	cfg.SM.Schedulers = 1
	cfg.SM.Scheduler = config.LRR
	d := mixKernel()
	d.ThreadsPerTB = 192 // 6 warps a block, 16 blocks: all 96 warp slots
	p := newPair(t, &cfg, []*kern.Desc{&d}, []int{d.MaxTBsPerSM(&cfg)})
	wraps, widest := 0, 0
	for cycle := int64(0); cycle < 4000; cycle++ {
		sc := &p.idx.scheds[0]
		n, start := len(sc.warps), 0
		if n > 0 {
			start = sc.rrPos % n
		}
		p.step(cycle)
		widest = max(widest, n)
		// A compute issue from a position before the rotation start means
		// the search wrapped (rrPos is the picked position plus one).
		if sc.issuedAt == cycle && n > 64 && len(sc.warps) == n {
			if picked := (sc.rrPos + n - 1) % n; picked < start && start > 64 {
				wraps++
			}
		}
	}
	if widest <= 64 {
		t.Fatalf("scheduler never held more than %d warps; the second mask word was not used", widest)
	}
	if wraps == 0 {
		t.Fatal("the rotation never wrapped from the second mask word to the first")
	}
}

// TestRetireAsleepThenRelaunch: a warp whose final instruction is an SFU
// or ALU op retires in the cycle it issues, asleep, with its wake filed
// up to 20 cycles ahead; the freed slot is re-launched the next cycle
// and the new warp files a wake of its own. The old wake must be gone by
// then: it must neither wake the new warp early nor leave the wheel and
// the masks disagreeing.
func TestRetireAsleepThenRelaunch(t *testing.T) {
	cfg := tinyConfig()
	d := kern.Desc{
		Name: "short", ThreadsPerTB: 32, RegsPerThread: 16,
		CPerM: 100, SFUFrac: 0.5, ReqPerMinst: 1, DepDist: 1, MaxPendingLoads: 1,
		FootprintLines: 64, InstrsPerWarp: 3,
	}
	p := newPair(t, &cfg, []*kern.Desc{&d}, []int{6})
	// retiredAsleep[slot] is the ReadyAt a warp left behind when it
	// retired before waking; a launch into the slot before that cycle is
	// the case under test.
	retiredAsleep := make([]int64, len(p.idx.warps))
	wasActive := make([]bool, len(p.idx.warps))
	relaunched := 0
	for cycle := int64(0); cycle < 3000; cycle++ {
		p.step(cycle)
		for slot := range p.idx.warps {
			w := &p.idx.warps[slot]
			switch {
			case wasActive[slot] && !w.Active && w.ReadyAt > cycle:
				retiredAsleep[slot] = w.ReadyAt
			case !wasActive[slot] && w.Active && cycle < retiredAsleep[slot]:
				relaunched++
			}
			wasActive[slot] = w.Active
		}
	}
	if relaunched == 0 {
		t.Fatal("no slot was re-launched while its previous warp's wake was still ahead")
	}
}

// TestDrainWithSleepers: Drain retires warps that are asleep (their
// wakes are withdrawn) and leaves others waiting for loads with their
// wake still filed; both must stay consistent through the wake-up and
// the re-dispatch that follows.
func TestDrainWithSleepers(t *testing.T) {
	cfg := tinyConfig()
	d0, d1 := mixKernel(), memKernel()
	d0.InstrsPerWarp = 1 << 30
	p := newPair(t, &cfg, []*kern.Desc{&d0, &d1}, []int{3, 3})
	drained := 0
	for cycle := int64(0); cycle < 3000; cycle++ {
		p.step(cycle)
		if cycle%400 == 399 {
			if sleepers(p.idx) == 0 {
				continue
			}
			drained++
			for _, s := range []*SM{p.idx, p.ref} {
				s.Drain()
				if err := s.CheckInvariants(cycle); err != nil {
					t.Fatalf("right after Drain: %v", err)
				}
			}
		}
	}
	if drained == 0 {
		t.Fatal("no Drain fell on a cycle with sleeping warps")
	}
}

// TestTickSkipsCycles: the owner may tick an SM on non-consecutive
// cycles. A wake that fell due in the gap must be applied at the next
// tick — not a wheel revolution later — whether the gap is shorter than
// the wheel, exactly its length, or many times longer.
func TestTickSkipsCycles(t *testing.T) {
	cfg := tinyConfig()
	d0, d1 := mixKernel(), memKernel()
	p := newPair(t, &cfg, []*kern.Desc{&d0, &d1}, []int{3, 2})
	wheelLen := p.idx.wheelMask + 1
	gaps := []int64{2, 3, 7, wheelLen - 1, wheelLen, wheelLen + 1, 3*wheelLen + 5}
	cycle, slept := int64(0), 0
	for i := 0; cycle < 6000; i++ {
		p.step(cycle)
		if i%25 == 24 {
			if sleepers(p.idx) > 0 {
				slept++
			}
			cycle += gaps[i/25%len(gaps)]
		} else {
			cycle++
		}
	}
	if slept < len(gaps) {
		t.Fatalf("only %d gaps began with warps asleep, want every gap length covered", slept)
	}
}

// TestRestoreInsideSleepWindow: a snapshot taken while warps are asleep
// carries no masks and no wheel. Restore must rebuild both — into a
// fresh SM and into one whose index holds another run's state — so that
// the continuation equals the uninterrupted run.
func TestRestoreInsideSleepWindow(t *testing.T) {
	const snapAt, total = 1500, 4000
	cfg := tinyConfig()
	d0, d1 := mixKernel(), memKernel()
	descs := []*kern.Desc{&d0, &d1}
	quota := []int{3, 2}
	fresh := func() *SM { return New(0, &cfg, descs, quota, nil, nil, nil, 1) }
	runTo := func(s *SM, pm *perfectMem, from, to int64) {
		t.Helper()
		for cycle := from; cycle < to; cycle++ {
			pm.tick(s, cycle)
			s.Tick(cycle)
			if err := s.CheckInvariants(cycle); err != nil {
				t.Fatal(err)
			}
		}
	}

	whole, pmWhole := fresh(), &perfectMem{lat: 60}
	runTo(whole, pmWhole, 0, total)
	want := schedState(whole)

	src, pmSrc := fresh(), &perfectMem{lat: 60}
	runTo(src, pmSrc, 0, snapAt)
	if sleepers(src) == 0 || src.SleepingCandidates() == 0 {
		t.Fatalf("no warp asleep at cycle %d; move the snapshot", snapAt)
	}
	sn := src.Snapshot(mem.NewCloner())

	used := fresh()
	used.SetQuota([]int{1, 4})
	runTo(used, &perfectMem{lat: 35}, 0, 900)
	used.SetQuota(quota)

	for name, dst := range map[string]*SM{"fresh": fresh(), "used": used} {
		if err := dst.Restore(sn, mem.NewCloner()); err != nil {
			t.Fatal(err)
		}
		if err := dst.CheckInvariants(snapAt); err != nil {
			t.Fatalf("%s SM right after Restore: %v", name, err)
		}
		// The memory below the SM is not part of its snapshot: hand the
		// restored SM copies of the responses still in flight.
		pm := &perfectMem{lat: 60}
		for _, e := range pmSrc.pending {
			r := *e.req
			pm.pending = append(pm.pending, struct {
				req *mem.Request
				at  int64
			}{&r, e.at})
		}
		runTo(dst, pm, snapAt, total)
		if got := schedState(dst); got != want {
			t.Errorf("run restored into a %s SM diverged from the uninterrupted run\ngot:\n%swant:\n%s", name, got, want)
		}
	}
}
