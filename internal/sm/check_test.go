package sm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kern"
)

// fakeLimiter is a limiter with a reportable cap (0 = uncapped).
type fakeLimiter struct{ caps []int }

func (f *fakeLimiter) Allow(kernel, inflight int) bool {
	return f.caps[kernel] == 0 || inflight < f.caps[kernel]
}
func (f *fakeLimiter) OnRequest(kernel int)              {}
func (f *fakeLimiter) OnRsFail(kernel int)               {}
func (f *fakeLimiter) NoteInflight(kernel, inflight int) {}
func (f *fakeLimiter) Tick(cycle int64)                  {}
func (f *fakeLimiter) StaticLimit(k int) int             { return f.caps[k] }

// faultyPolicy is a MemIssuePolicy whose internal invariant fails.
type faultyPolicy struct{ err error }

func (p *faultyPolicy) Pick(kernels []int) int   { return 0 }
func (p *faultyPolicy) OnIssue(kernel, reqs int) {}
func (p *faultyPolicy) CheckInvariant() error    { return p.err }

func TestCheckInvariantsCleanRun(t *testing.T) {
	c := computeKernel()
	m := memKernel()
	s, _ := newSM(t, []*kern.Desc{&c, &m}, []int{2, 2})
	pm := &perfectMem{lat: 40}
	for cycle := int64(0); cycle < 5000; cycle++ {
		s.Tick(cycle)
		pm.tick(s, cycle)
		if err := s.CheckInvariants(cycle); err != nil {
			t.Fatalf("healthy SM reported violation at cycle %d: %v", cycle, err)
		}
	}
	if s.K[0].Instrs()+s.K[1].Instrs() == 0 {
		t.Fatal("no instructions issued; test exercised nothing")
	}
	if !s.ResidentTBs() {
		t.Fatal("expected resident thread blocks")
	}
}

func TestCheckInvariantsDetectsInflightLeak(t *testing.T) {
	c := computeKernel()
	m := memKernel()
	s, _ := newSM(t, []*kern.Desc{&c, &m}, []int{1, 1})
	// Corrupt the accounting the way a double-completion bug would.
	s.inflight[1] = -1
	err := s.CheckInvariants(1234)
	if err == nil {
		t.Fatal("negative in-flight count not detected")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error is %T, want *InvariantError", err)
	}
	if ie.Rule != "inflight-negative" || ie.SM != 0 || ie.Kernel != 1 || ie.Cycle != 1234 {
		t.Fatalf("violation context wrong: %+v", ie)
	}
}

func TestCheckInvariantsEnforcesMILCap(t *testing.T) {
	c := computeKernel()
	m := memKernel()
	lim := &fakeLimiter{caps: []int{0, 8}}
	cfg := tinyConfig()
	descs := []*kern.Desc{&c, &m}
	if err := Validate(&cfg, descs); err != nil {
		t.Fatal(err)
	}
	s := New(0, &cfg, descs, []int{1, 1}, nil, lim, nil, 1)

	// Within cap plus one instruction's coalescer slack: legal.
	s.inflight[1] = 8 + coalescerSlack
	if err := s.CheckInvariants(10); err != nil {
		t.Fatalf("legal overshoot flagged: %v", err)
	}
	// Beyond the slack: the limiter is not being consulted — a leak.
	s.inflight[1] = 8 + coalescerSlack + 1
	err := s.CheckInvariants(11)
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Rule != "mil-cap" || ie.Kernel != 1 {
		t.Fatalf("cap violation not attributed: %v", err)
	}
	// Kernel 0 is uncapped: any count is legal for the cap rule.
	s.inflight[1] = 0
	s.inflight[0] = 500
	if err := s.CheckInvariants(12); err != nil {
		t.Fatalf("uncapped kernel flagged: %v", err)
	}
}

func TestCheckInvariantsSurfacesPolicyViolation(t *testing.T) {
	c := computeKernel()
	cfg := tinyConfig()
	descs := []*kern.Desc{&c}
	if err := Validate(&cfg, descs); err != nil {
		t.Fatal(err)
	}
	pol := &faultyPolicy{}
	s := New(0, &cfg, descs, []int{1}, pol, nil, nil, 1)
	if err := s.CheckInvariants(0); err != nil {
		t.Fatalf("clean policy flagged: %v", err)
	}
	pol.err = fmt.Errorf("quota stuck at zero")
	err := s.CheckInvariants(77)
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Rule != "mem-policy" || ie.Cycle != 77 {
		t.Fatalf("policy violation not surfaced: %v", err)
	}
	if ie.Detail != "quota stuck at zero" {
		t.Fatalf("detail lost: %q", ie.Detail)
	}
}

// TestCheckInvariantsDetectsStaleReadyIndex corrupts each part of the
// issue index mid-run and requires the ready-index rule to name it: a
// stale index is the bug class the issue stages cannot see themselves (a
// warp masked out by mistake simply never issues, one offered by mistake
// issues early).
func TestCheckInvariantsDetectsStaleReadyIndex(t *testing.T) {
	// resident returns the slot of the first resident warp satisfying ok.
	resident := func(t *testing.T, s *SM, what string, ok func(w *Warp) bool) int {
		t.Helper()
		for si := range s.scheds {
			for _, slot := range s.scheds[si].warps {
				if ok(&s.warps[slot]) {
					return slot
				}
			}
		}
		t.Fatalf("no resident %s warp after warm-up", what)
		return -1
	}
	// flip inverts the bit of the warp in slot in mask row r.
	flip := func(s *SM, slot, r int) {
		at, bit := s.bit(slot, r)
		s.masks[at] ^= bit
	}
	sleeping := func(s *SM) int {
		return resident(t, s, "sleeping", func(w *Warp) bool { return w.ReadyAt > s.woken })
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, s *SM)
	}{
		{"kind bit cleared", func(t *testing.T, s *SM) {
			flip(s, resident(t, s, "ALU", func(w *Warp) bool { return s.kindOf(w) == kindALU }), int(kindALU))
		}},
		{"warp class", func(t *testing.T, s *SM) {
			flip(s, resident(t, s, "blocked", func(w *Warp) bool { return s.kindOf(w) == kindNone }), int(kindMem))
		}},
		{"kernel bit", func(t *testing.T, s *SM) {
			slot := resident(t, s, "kernel-0", func(w *Warp) bool { return w.Kernel == 0 })
			flip(s, slot, rowKernel)
			flip(s, slot, rowKernel+1)
		}},
		{"asleep bit cleared", func(t *testing.T, s *SM) { flip(s, sleeping(s), rowAsleep) }},
		{"asleep bit set", func(t *testing.T, s *SM) {
			flip(s, resident(t, s, "awake", func(w *Warp) bool { return w.ReadyAt <= s.woken }), rowAsleep)
		}},
		{"position map", func(t *testing.T, s *SM) {
			s.wAt[resident(t, s, "any", func(*Warp) bool { return true })]++
		}},
		{"dropped wake", func(t *testing.T, s *SM) {
			slot := sleeping(s)
			at, bit := s.wakeBit(slot, s.warps[slot].ReadyAt)
			s.wheel[at] &^= bit
		}},
		{"stray wake", func(t *testing.T, s *SM) {
			slot := sleeping(s)
			at, bit := s.wakeBit(slot, s.warps[slot].ReadyAt-1)
			s.wheel[at] |= bit
		}},
		{"free slot", func(t *testing.T, s *SM) {
			at, bit := s.wakeBit(s.freeWarps[0], s.woken+3)
			s.wheel[at] |= bit
		}},
		{"bit past the list", func(t *testing.T, s *SM) {
			n := len(s.scheds[0].warps)
			s.block(0, n>>6)[rowAsleep] |= 1 << (n & 63)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := computeKernel()
			m := memKernel()
			s, _ := newSM(t, []*kern.Desc{&c, &m}, []int{2, 2})
			pm := &perfectMem{lat: 40}
			const warm = 600
			for cycle := int64(0); cycle <= warm; cycle++ {
				pm.tick(s, cycle)
				s.Tick(cycle)
			}
			if err := s.CheckInvariants(warm); err != nil {
				t.Fatalf("healthy SM flagged: %v", err)
			}
			tc.corrupt(t, s)
			err := s.CheckInvariants(warm)
			var ie *InvariantError
			if !errors.As(err, &ie) || ie.Rule != "ready-index" || ie.SM != 0 || ie.Cycle != warm {
				t.Fatalf("stale index not attributed to ready-index: %v", err)
			}
		})
	}
}
