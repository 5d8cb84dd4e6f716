package gpu_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

func watchdogWorkload(t *testing.T) (config.Config, []*kern.Desc, *gpu.Options) {
	t.Helper()
	cfg := config.Scaled(1)
	bp, err := kern.ByName("bp")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := kern.ByName("sv")
	if err != nil {
		t.Fatal(err)
	}
	descs := []*kern.Desc{&bp, &sv}
	opts := &gpu.Options{
		Cycles: 20_000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, core.EvenQuota(&cfg, descs)),
	}
	return cfg, descs, opts
}

// TestWatchdogCleanOnHealthyRuns guards against false positives: the
// checker must stay silent across the mechanism configurations the
// paper evaluates.
func TestWatchdogCleanOnHealthyRuns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(o *gpu.Options, n int)
	}{
		{"baseline", func(o *gpu.Options, n int) {}},
		{"qbmi", func(o *gpu.Options, n int) {
			o.Policies.MemPolicy = func(smID, nk int) sm.MemIssuePolicy { return core.NewQBMI(nk, nil) }
		}},
		{"dmil", func(o *gpu.Options, n int) {
			o.Policies.Limiter = func(smID, nk int) sm.Limiter { return core.NewDMIL(nk) }
		}},
		{"smil", func(o *gpu.Options, n int) {
			o.Policies.Limiter = func(smID, nk int) sm.Limiter { return core.NewSMIL([]int{4, 8}) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, descs, opts := watchdogWorkload(t)
			tc.setup(opts, len(descs))
			opts.Observers = []gpu.Observer{gpu.Watchdog(0, gpu.DefaultProgressWindow)}
			res, err := gpu.Run(cfg, descs, opts)
			if err != nil {
				t.Fatalf("healthy run flagged: %v", err)
			}
			if res.Kernels[0].Instrs == 0 {
				t.Fatal("no progress; nothing exercised")
			}
		})
	}
}

// blockedGate admits no instruction from any kernel: with thread blocks
// resident and the gate shut, the machine makes no progress — the
// watchdog's deadlock rule must fire.
type blockedGate struct{}

func (blockedGate) CanIssue(kernel int) bool { return false }
func (blockedGate) OnIssue(kernel int)       {}
func (blockedGate) Tick(cycle int64)         {}

func TestWatchdogDetectsNoProgress(t *testing.T) {
	cfg, descs, opts := watchdogWorkload(t)
	opts.Policies.Gate = func(smID, n int) sm.IssueGate { return blockedGate{} }
	opts.Observers = []gpu.Observer{gpu.Watchdog(0, 2_000)}
	_, err := gpu.Run(cfg, descs, opts)
	var ie *sm.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("deadlocked machine not detected: err=%v", err)
	}
	if ie.Rule != "no-progress" {
		t.Fatalf("rule = %q, want no-progress", ie.Rule)
	}
	if ie.Cycle < 2_000 || ie.Cycle > 4_000 {
		t.Fatalf("violation cycle %d outside expected window", ie.Cycle)
	}
}

// corruptPolicy reports an internal invariant violation after a fixed
// number of issues — the injection seam for testing the reporting path.
type corruptPolicy struct{ issues, failAfter int }

func (p *corruptPolicy) Pick(kernels []int) int   { return 0 }
func (p *corruptPolicy) OnIssue(kernel, reqs int) { p.issues++ }
func (p *corruptPolicy) CheckInvariant() error {
	if p.issues >= p.failAfter {
		return fmt.Errorf("injected: quota conservation broken after %d issues", p.issues)
	}
	return nil
}

func TestWatchdogSurfacesInjectedPolicyViolation(t *testing.T) {
	cfg, descs, opts := watchdogWorkload(t)
	opts.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy {
		return &corruptPolicy{failAfter: 50}
	}
	opts.Observers = []gpu.Observer{gpu.Watchdog(0, gpu.DefaultProgressWindow)}
	_, err := gpu.Run(cfg, descs, opts)
	var ie *sm.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("injected violation not surfaced: err=%v", err)
	}
	if ie.Rule != "mem-policy" || ie.SM < 0 {
		t.Fatalf("violation context wrong: %+v", ie)
	}
}

func TestRunCyclesInterrupt(t *testing.T) {
	cfg, descs, opts := watchdogWorkload(t)
	opts.Cycles = 1_000_000
	stop := false
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few polls pass, then trip the interrupt via a hook.
	opts.Observers = []gpu.Observer{
		gpu.Periodic(0, 1_000, func(g *gpu.GPU) error {
			stop = stop || g.Cycle() >= 10_000
			return nil
		}),
		gpu.Interrupt(0, opts.Cycles, func() bool { return stop }),
	}
	err = g.RunCycles(opts)
	if !errors.Is(err, gpu.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if g.Cycle() < 10_000 || g.Cycle() > 12_000 {
		t.Fatalf("interrupted at cycle %d, want shortly after 10k", g.Cycle())
	}
	// A non-interrupted run completes and returns nil.
	opts2 := &gpu.Options{Cycles: 5_000, Quota: opts.Quota,
		Observers: []gpu.Observer{gpu.Interrupt(0, 5_000, func() bool { return false })}}
	g2, err := gpu.New(cfg, descs, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RunCycles(opts2); err != nil {
		t.Fatalf("uninterrupted run errored: %v", err)
	}
}

// unexported returns a pointer to the unexported field path under v (a
// pointer to a struct), following pointers and indexing element 0 of
// slices on the way. The index-corruption test below reaches into the
// crossbar this way so the production packages need no corruption seam.
func unexported(v reflect.Value, path ...string) unsafe.Pointer {
	for _, name := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
		if v.Kind() == reflect.Slice {
			v = v.Index(0)
		}
	}
	return unsafe.Pointer(v.UnsafeAddr())
}

// TestWatchdogNamesStaleIndex makes the derived indexes stale mid-run —
// the SM's issue index, the crossbar's head-source masks, a cache's MSHR
// accounting — and requires the watchdog to stop the run on the very
// next cycle with the rule that names the index. Without the rule a
// stale index is silent: the warp or port it hides simply never issues
// again, the MSHR it leaks is never granted again.
func TestWatchdogNamesStaleIndex(t *testing.T) {
	const corruptFrom = 3_000
	for _, tc := range []struct {
		name, rule string
		sm         int
		// corrupt reports whether the machine's state at this cycle let
		// it break anything; the hook retries every cycle until it does.
		corrupt func(g *gpu.GPU) bool
	}{
		{"ready-index", "ready-index", 1, func(g *gpu.GPU) bool {
			// The index caches, per warp, a consequence of the kernel's
			// pending-load cap (a load at the cap is not a memory-issue
			// candidate). Zeroing the cap behind the SMs' backs is what a
			// missed index update looks like from outside: every sv warp
			// indexed as ready to load no longer is, by its own state. Only
			// SM 1 runs sv, so SM 0 must stay clean.
			g.Kernels()[1].MaxPendingLoads = 0
			return true
		}},
		{"icnt-head-index", "icnt-head-index", -1, func(g *gpu.GPU) bool {
			// Drop the head bits of response port 0 while a partition has
			// a response queued for it: the port never sees that source
			// again.
			heads := (*atomic.Uint64)(unexported(reflect.ValueOf(g), "respNet", "heads"))
			return heads.Swap(0) != 0
		}},
		{"cache-index/l1", "cache-index", 1, func(g *gpu.GPU) bool {
			*(*int)(unexported(reflect.ValueOf(g.SMs[1].L1), "mshrFree"))++
			return true
		}},
		{"cache-index/l2", "cache-index", -1, func(g *gpu.GPU) bool {
			*(*int)(unexported(reflect.ValueOf(g), "parts", "l2", "mshrFree"))--
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, descs, opts := watchdogWorkload(t)
			cfg = config.Scaled(2)
			even := core.EvenQuota(&cfg, descs)
			opts.Quota = [][]int{{even[0], 0}, even}
			corruptedAt := int64(-1)
			opts.Observers = []gpu.Observer{
				gpu.Watchdog(0, gpu.DefaultProgressWindow),
				gpu.Periodic(0, 1, func(g *gpu.GPU) error {
					if g.Cycle() >= corruptFrom && corruptedAt < 0 && tc.corrupt(g) {
						corruptedAt = g.Cycle()
					}
					return nil
				}),
			}
			_, err := gpu.Run(cfg, descs, opts)
			var ie *sm.InvariantError
			if !errors.As(err, &ie) {
				t.Fatalf("stale index not detected: err=%v (corrupted at cycle %d)", err, corruptedAt)
			}
			if ie.Rule != tc.rule || ie.SM != tc.sm || ie.Cycle != corruptedAt+1 {
				t.Fatalf("violation = %+v, want rule %s sm %d at cycle %d", ie, tc.rule, tc.sm, corruptedAt+1)
			}
		})
	}
}
