package gpu_test

import (
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
)

// The split cycle at the Table 1 machine's 16 SMs: whether a run ticks
// the upper SMs on a helper goroutine while the caller runs the previous
// cycle's memory side (GOMAXPROCS >= 2, alone in the process, no policy
// instance shared across SMs, Icnt.Latency >= 1) or all of it on the
// caller, it must produce the bytes the serial engine did.

const splitCycles, splitHalf = 3000, 1500

// splitMachine is the 16-SM machine running bp+sv under the even TB
// partition, with whatever set adds to its options.
func splitMachine(t *testing.T, set func(o *gpu.Options)) (*gpu.GPU, *gpu.Options) {
	t.Helper()
	return splitMachineOn(t, config.Default(), set)
}

// splitMachineOn is splitMachine on cfg.
func splitMachineOn(t *testing.T, cfg config.Config, set func(o *gpu.Options)) (*gpu.GPU, *gpu.Options) {
	t.Helper()
	descs := []*kern.Desc{kernel(t, "bp"), kernel(t, "sv")}
	o := &gpu.Options{Cycles: splitCycles, Quota: gpu.UniformQuota(cfg.NumSMs, core.EvenQuota(&cfg, descs))}
	if set != nil {
		set(o)
	}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	return g, o
}

func qbmiDMIL(o *gpu.Options) {
	o.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, nil) }
	o.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
}

// legRunner runs RunCycles legs and checks, after each, that the
// process is back to the goroutines it had before the leg, and, after
// the leg's first step, that a helper is alive exactly when one is
// expected.
type legRunner struct {
	t     *testing.T
	split bool // a helper is expected during each leg
}

func (r legRunner) leg(g *gpu.GPU, o *gpu.Options, cycles int64, extra ...gpu.Observer) error {
	r.t.Helper()
	base := runtime.NumGoroutine()
	alive := -1
	leg := *o
	leg.Cycles = cycles
	leg.Observers = slices.Concat([]gpu.Observer{{At: g.Cycle() + 1, Fn: func(*gpu.GPU) error {
		alive = runtime.NumGoroutine() - base
		return nil
	}}}, o.Observers, extra)
	err := g.RunCycles(&leg)
	awaitGoroutines(r.t, base)
	want := 0
	if r.split {
		want = 1
	}
	if alive != want {
		r.t.Errorf("at cycle %d, GOMAXPROCS %d: %d goroutines beside the caller's, want %d",
			g.Cycle(), runtime.GOMAXPROCS(0), alive, want)
	}
	return err
}

// awaitGoroutines fails t unless the process is back to at most base
// goroutines within a second: a helper signals its end just before it
// returns.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunCycles, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func splitDigests(t *testing.T, g *gpu.GPU, o *gpu.Options) (result, tr string) {
	t.Helper()
	js, err := json.Marshal(g.Result())
	if err != nil {
		t.Fatal(err)
	}
	if o.Trace != nil {
		tr = trace.Render(o.Trace.Snapshot())
	}
	return sha(js), sha([]byte(tr))
}

// splitScenario is one 16-SM run. Its goldens are the sha256 of the
// RunResult JSON and of the rendered trace (shaEmpty without one),
// recorded on the engine before the SM phase could split.
type splitScenario struct {
	name                  string
	serial                bool // runs serial at every GOMAXPROCS
	run                   func(r legRunner) (result, trace string)
	goldResult, goldTrace string
}

// The even run's result: every scenario that only cuts the even run into
// legs (an interrupt, a snapshot and restore) must end on it.
const goldSplitEven = "0cc19cf306b890c24b7a754683cc71d2f924d35ac04f920c53e7254480055a9c"

var splitScenarios = []splitScenario{
	{name: "even", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, nil)
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: goldSplitEven, goldTrace: shaEmpty},

	{name: "qbmi-dmil", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, qbmiDMIL)
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: "03cab572a5c0e67194c201b805469e9629c7d838d09e34e2c5b55b22892da799", goldTrace: shaEmpty},

	{name: "series-trace-ucp", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, func(o *gpu.Options) {
			o.Series, o.UCP, o.Trace = true, true, trace.New(1<<14)
			o.Observers = []gpu.Observer{gpu.Repartition(0, 1000)}
		})
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: "b31a2c9bd97d3b8ba6759b38fc13155cd6bd551419d9f8278bbb1c2125499de8", goldTrace: "77e179cb59ecb34bb130b5ae5efdbbc8b0ab83c88e6ef4e4ae6826086bbf55e2"},

	{name: "global-dmil", serial: true, run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, func(o *gpu.Options) {
			shared := core.NewGlobalDMIL(2)
			o.Policies.Limiter = func(smID, n int) sm.Limiter { return shared }
			o.Trace = trace.New(1 << 14)
		})
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: "5e49e93a6441ca327ddf46bb084483b95f845b0d93330a738a55f2f2f44fd006", goldTrace: "047879d0437099664aaaae54ddb559dc0016115d8d26cf89ac7ba94dd7ded0e0"},

	{name: "interrupt-continue", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, nil)
		err := r.leg(g, o, splitCycles, gpu.Interrupt(1, splitCycles, func() bool { return true }))
		if !errors.Is(err, gpu.ErrInterrupted) || g.Cycle() != 1024 {
			r.t.Fatalf("interrupted leg: %v at cycle %d, want ErrInterrupted at 1024", err, g.Cycle())
		}
		if err := r.leg(g, o, splitCycles-1024); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: goldSplitEven, goldTrace: shaEmpty},

	{name: "install-policies-between-legs", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, nil)
		if err := r.leg(g, o, splitHalf); err != nil {
			r.t.Fatal(err)
		}
		qbmiDMIL(o)
		g.InstallPolicies(o)
		if err := r.leg(g, o, splitCycles-splitHalf); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: "a7cbc03057d337d4fc34b0a29e11eec09edbaae4bb10a6a9437e2fc033644326", goldTrace: shaEmpty},

	{name: "restore-continue", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, nil)
		if err := r.leg(g, o, splitHalf); err != nil {
			r.t.Fatal(err)
		}
		sn, err := g.Snapshot()
		if err != nil {
			r.t.Fatal(err)
		}
		g.Close()
		h, o := splitMachine(r.t, nil)
		if err := h.Restore(sn); err != nil {
			r.t.Fatal(err)
		}
		if err := r.leg(h, o, splitCycles-splitHalf); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, h, o)
	}, goldResult: goldSplitEven, goldTrace: shaEmpty},

	// With no traversal latency a grant of the response network's tick
	// is poppable the next cycle, so the memory side may not run under
	// the next SM phase: such a machine never splits.
	{name: "icnt-latency-0", serial: true, run: func(r legRunner) (string, string) {
		cfg := config.Default()
		cfg.Icnt.Latency = 0
		g, o := splitMachineOn(r.t, cfg, func(o *gpu.Options) { o.Trace = trace.New(1 << 14) })
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: "4ad0dcaf9b38629fed97c4c77aec72d2c2391730dcceaec2de21e5be4d900df4", goldTrace: "99665a7b714ce47ebf0b62fe3b32443cc3e6cb2ec826d9809d4d942758140817"},

	// An observer due every cycle flushes the memory side every cycle:
	// the helper still ticks its SMs, nothing overlaps them.
	{name: "watchdog", run: func(r legRunner) (string, string) {
		g, o := splitMachine(r.t, func(o *gpu.Options) {
			o.Observers = []gpu.Observer{gpu.Watchdog(0, gpu.DefaultProgressWindow)}
		})
		if err := r.leg(g, o, splitCycles); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, g, o)
	}, goldResult: goldSplitEven, goldTrace: shaEmpty},

	// Step and Snapshot right after an overlapped leg see the machine
	// the serial loop leaves: the encoded snapshot is the serial loop's,
	// and a restore of it continues to the even run's bytes.
	{name: "step-snapshot-after-run", run: func(r legRunner) (string, string) {
		const steps = 3
		g, o := splitMachine(r.t, nil)
		if err := r.leg(g, o, splitHalf-steps); err != nil {
			r.t.Fatal(err)
		}
		for range steps {
			g.Step()
		}
		sn, err := g.Snapshot()
		if err != nil {
			r.t.Fatal(err)
		}
		enc, err := gpu.EncodeSnapshot(sn)
		if err != nil {
			r.t.Fatal(err)
		}
		if got := sha(enc); got != goldSplitStepSnapshot {
			r.t.Errorf("GOMAXPROCS %d: snapshot after Step sha256 %s, golden %s", runtime.GOMAXPROCS(0), got, goldSplitStepSnapshot)
		}
		g.Close()
		h, o := splitMachine(r.t, nil)
		if err := h.Restore(sn); err != nil {
			r.t.Fatal(err)
		}
		if err := r.leg(h, o, splitCycles-splitHalf); err != nil {
			r.t.Fatal(err)
		}
		return splitDigests(r.t, h, o)
	}, goldResult: goldSplitEven, goldTrace: shaEmpty},
}

// goldSplitStepSnapshot is the encoded snapshot of the even run at cycle
// splitHalf, recorded on the serial loop (moved since only where fields
// left the snapshot graph).
const goldSplitStepSnapshot = "ae3c993c35beae12c7082814bf3568334094072f963fface8697c1888e918b33"

// atProcs runs fn at each GOMAXPROCS of 1 (no helper possible), 2 and 4.
func atProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		fn(t, procs)
	}
}

// TestSplitStepMatchesSerial holds the split SM phase to the serial
// engine's bytes at 16 SMs: every scenario, at GOMAXPROCS 1, 2 and 4,
// hashes to the goldens, a helper is alive during each leg exactly when
// the run may split, and every leg returns the goroutines it started.
func TestSplitStepMatchesSerial(t *testing.T) {
	for _, sc := range splitScenarios {
		t.Run(sc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T, procs int) {
				res, tr := sc.run(legRunner{t: t, split: procs > 1 && !sc.serial})
				if res != sc.goldResult || tr != sc.goldTrace {
					t.Errorf("GOMAXPROCS %d: result sha256 %s, trace %s; golden %s, %s",
						procs, res, tr, sc.goldResult, sc.goldTrace)
				}
			})
		})
	}
}

// panicGate panics in its Tick at cycle at. It is a value, so it holds
// no state and does not keep the run from splitting.
type panicGate struct{ at int64 }

var errGatePanic = errors.New("gate panicked")

func (g panicGate) CanIssue(int) bool { return true }
func (g panicGate) OnIssue(int)       {}
func (g panicGate) Tick(cycle int64) {
	if cycle == g.at {
		panic(errGatePanic)
	}
}

// TestSplitHelperPanicReachesCaller: a panic in an SM the helper ticks
// is raised from RunCycles on the caller's goroutine, with its value,
// and the helper is gone when it is.
func TestSplitHelperPanicReachesCaller(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		g, o := splitMachine(t, func(o *gpu.Options) {
			o.Policies.Gate = func(smID, n int) sm.IssueGate {
				if smID == 15 { // the helper's half
					return panicGate{at: 700}
				}
				return panicGate{at: -1}
			}
		})
		base := runtime.NumGoroutine()
		got := func() (r any) {
			defer func() { r = recover() }()
			g.RunCycles(o)
			return nil
		}()
		if got != errGatePanic {
			t.Fatalf("GOMAXPROCS %d: RunCycles raised %v, want the gate's panic", procs, got)
		}
		if g.Cycle() != 700 {
			t.Errorf("GOMAXPROCS %d: panicked at cycle %d, want 700", procs, g.Cycle())
		}
		awaitGoroutines(t, base)
	})
}

// TestSplitTwoMachinesAtOnce: two 16-SM machines stepping at once in one
// process both produce the even run's bytes, and at most one helper is
// alive at any time: the second machine to start does not split, and
// the first releases its helper.
func TestSplitTwoMachinesAtOnce(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		base := runtime.NumGoroutine()
		var (
			wg        sync.WaitGroup
			mu        sync.Mutex
			most      int
			met       = make(chan struct{}, 2)
			results   [2]string
			runErrors [2]error
		)
		for i := range results {
			g, o := splitMachine(t, nil)
			o.Observers = []gpu.Observer{
				// Both machines are inside RunCycles at cycle 512.
				{At: 512, Fn: func(*gpu.GPU) error {
					met <- struct{}{}
					deadline := time.Now().Add(time.Minute)
					for len(met) < 2 && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					return nil
				}},
				gpu.Periodic(0, 128, func(*gpu.GPU) error {
					mu.Lock()
					most = max(most, runtime.NumGoroutine())
					mu.Unlock()
					return nil
				}),
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if runErrors[i] = g.RunCycles(o); runErrors[i] == nil {
					js, err := json.Marshal(g.Result())
					results[i], runErrors[i] = sha(js), err
				}
			}()
		}
		wg.Wait()
		for i := range results {
			if runErrors[i] != nil {
				t.Fatal(runErrors[i])
			}
			if results[i] != goldSplitEven {
				t.Errorf("GOMAXPROCS %d: machine %d result sha256 %s, golden %s", procs, i, results[i], goldSplitEven)
			}
		}
		// base, the two machines' goroutines, at most one helper.
		if most > base+3 {
			t.Errorf("GOMAXPROCS %d: %d goroutines while two machines stepped, %d before: more than one helper", procs, most, base)
		}
		awaitGoroutines(t, base)
	})
}
