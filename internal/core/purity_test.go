package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/xrand"
)

// The SM asks Limiter.Allow and IssueGate.CanIssue once per kernel per
// issue decision, not once per candidate warp, so how often it asks is
// the SM's business: the sm.Limiter / sm.IssueGate contract makes both
// side-effect-free queries. The tests below hold every implementation in
// this package to it: two twins see one random event sequence, one of
// them is also asked at random points in between, and nothing that can
// be observed afterwards may differ.

const purityKernels = 3

// pester asks lim a few questions nobody needs the answer to.
func pester(rng *xrand.Source, lim sm.Limiter) {
	for i := rng.Intn(4); i >= 0; i-- {
		lim.Allow(rng.Intn(purityKernels), rng.Intn(200))
	}
}

// sameAnswers compares the twins' Allow over every kernel and a spread
// of in-flight counts.
func sameAnswers(t *testing.T, step int, quiet, asked sm.Limiter) {
	t.Helper()
	for k := 0; k < purityKernels; k++ {
		for _, inflight := range []int{0, 1, 3, 8, 17, 40, 64, 100, 127, 128, 200} {
			if q, a := quiet.Allow(k, inflight), asked.Allow(k, inflight); q != a {
				t.Fatalf("step %d: Allow(%d, %d) = %v on the quiet twin, %v on the pestered one", step, k, inflight, q, a)
			}
		}
	}
}

// driveLimiters feeds both twins the event stream an SM produces —
// per-cycle Tick, in-flight counts walking up by an instruction's
// requests and down by one, requests, and reservation failures arriving
// in stall phases — and pesters only the second.
func driveLimiters(t *testing.T, seed uint64, quiet, asked sm.Limiter, observe func(step int)) {
	t.Helper()
	rng := xrand.New(seed)
	inflight := make([]int, purityKernels)
	stalling := false
	for cycle := 0; cycle < 60_000; cycle++ {
		if cycle%3000 == 0 {
			stalling = rng.Bool(0.5)
		}
		quiet.Tick(int64(cycle))
		asked.Tick(int64(cycle))
		for e := rng.Intn(4); e > 0; e-- {
			k := rng.Intn(purityKernels)
			switch rng.Intn(4) {
			case 0:
				inflight[k] += 1 + rng.Intn(17)
				quiet.NoteInflight(k, inflight[k])
				asked.NoteInflight(k, inflight[k])
			case 1:
				// Slow completions in a stall phase: long residency, the
				// signal DMIL cuts on.
				if inflight[k] > 0 && (!stalling || rng.Bool(0.05)) {
					inflight[k]--
					quiet.NoteInflight(k, inflight[k])
					asked.NoteInflight(k, inflight[k])
				}
			case 2:
				quiet.OnRequest(k)
				asked.OnRequest(k)
			case 3:
				if stalling {
					quiet.OnRsFail(k)
					asked.OnRsFail(k)
				}
			}
			if rng.Bool(0.3) {
				pester(rng, asked)
			}
		}
		if cycle%97 == 0 {
			sameAnswers(t, cycle, quiet, asked)
			observe(cycle)
		}
	}
}

func TestSMILAllowIsAPureQuery(t *testing.T) {
	limits := []int{Unlimited, 4, 40}
	quiet, asked := NewSMIL(limits), NewSMIL(limits)
	driveLimiters(t, 11, quiet, asked, func(step int) {
		for k := range limits {
			if quiet.StaticLimit(k) != asked.StaticLimit(k) {
				t.Fatalf("step %d: StaticLimit(%d) diverged", step, k)
			}
		}
	})
}

func TestDMILAllowIsAPureQuery(t *testing.T) {
	quiet, asked := NewDMIL(purityKernels), NewDMIL(purityKernels)
	moved := false
	driveLimiters(t, 12, quiet, asked, func(step int) {
		for k := 0; k < purityKernels; k++ {
			if quiet.Limit(k) != asked.Limit(k) {
				t.Fatalf("step %d: Limit(%d) = %d on the quiet twin, %d on the pestered one", step, k, quiet.Limit(k), asked.Limit(k))
			}
			moved = moved || quiet.Limit(k) != milgPeakMax+1
		}
	})
	if !moved {
		t.Fatal("no DMIL limit ever left its open value; the event stream exercised nothing")
	}
}

// L2MIL learns only from its Hook, which reads a machine's L2 and DRAM
// counters: one unmanaged machine running a DRAM-bound pair serves both
// twins as that source.
func TestL2MILAllowIsAPureQuery(t *testing.T) {
	cfg := config.Scaled(2)
	bp, err := kern.ByName("bp")
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kern.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	leg := &gpu.Options{Cycles: 1024, Quota: gpu.UniformQuota(cfg.NumSMs, []int{7, 5})}
	g, err := gpu.New(cfg, []*kern.Desc{&bp, &ks}, leg)
	if err != nil {
		t.Fatal(err)
	}
	quiet, asked := NewL2MIL(2), NewL2MIL(2)
	rng := xrand.New(13)
	moved := false
	for step := 0; step < 48; step++ {
		if err := g.RunCycles(leg); err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(6); i > 0; i-- {
			asked.Allow(rng.Intn(2), rng.Intn(200))
		}
		quiet.Hook(g)
		asked.Hook(g)
		for k := 0; k < 2; k++ {
			if quiet.Limit(k) != asked.Limit(k) {
				t.Fatalf("hook %d: Limit(%d) = %d on the quiet twin, %d on the pestered one", step, k, quiet.Limit(k), asked.Limit(k))
			}
			for _, inflight := range []int{0, 1, 8, 64, 127, 128} {
				if quiet.Allow(k, inflight) != asked.Allow(k, inflight) {
					t.Fatalf("hook %d: Allow(%d, %d) diverged", step, k, inflight)
				}
			}
			moved = moved || quiet.Limit(k) != milgPeakMax+1
		}
	}
	if !moved {
		t.Fatal("no L2MIL limit ever left its open value; the machine never congested")
	}
}

func TestSMKGateCanIssueIsAPureQuery(t *testing.T) {
	ipc := []float64{0.2, 1.1, 0.6}
	quiet, asked := NewSMKGate(ipc, 400), NewSMKGate(ipc, 400)
	rng := xrand.New(14)
	closed := false
	for cycle := 0; cycle < 60_000; cycle++ {
		quiet.Tick(int64(cycle))
		asked.Tick(int64(cycle))
		// Bursts and long silences: quotas run out, refresh when all are
		// spent, and the liveness guard fires in the gaps.
		if cycle/5000%2 == 0 {
			for e := rng.Intn(4); e > 0; e-- {
				k := rng.Intn(len(ipc))
				if quiet.CanIssue(k) != asked.CanIssue(k) {
					t.Fatalf("cycle %d: CanIssue(%d) diverged", cycle, k)
				}
				if quiet.CanIssue(k) {
					quiet.OnIssue(k)
					asked.OnIssue(k)
				} else {
					closed = true
				}
				for i := rng.Intn(3); i > 0; i-- {
					asked.CanIssue(rng.Intn(len(ipc)))
				}
			}
		} else if rng.Bool(0.2) {
			asked.CanIssue(rng.Intn(len(ipc)))
		}
		for k := range ipc {
			if quiet.Remaining(k) != asked.Remaining(k) {
				t.Fatalf("cycle %d: Remaining(%d) = %d on the quiet twin, %d on the pestered one", cycle, k, quiet.Remaining(k), asked.Remaining(k))
			}
		}
	}
	if !closed {
		t.Fatal("the gate never closed; the event stream exercised nothing")
	}
}
