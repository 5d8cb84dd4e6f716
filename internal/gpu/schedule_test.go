package gpu_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

// Periods of the schedule test's observers. They are chosen so that
// several observers come due on one cycle (1536: UCP, hook, sink;
// 3072: hook, sink, interrupt poll), which pins their order.
const (
	hookEvery = 512
	sinkEvery = 1536
	ucpEvery  = 1535
)

// firing is one run of an observer: the cycle counter when it ran and
// which mechanism it was.
type firing struct {
	cycle int64
	name  string
}

func (f firing) String() string { return fmt.Sprintf("%d:%s", f.cycle, f.name) }

// recorder logs the firings of one run. Hooks, sinks and the
// interrupt poll log themselves. The watchdog and the UCP repartition
// have no callback of their own, so probes on SM 0 watch them: a memory
// policy whose CheckInvariant (called only by the watchdog) logs
// "watchdog", and UCP shows as a new L1 partition slice on SM 0
// (SetPartition replaces it on every repartition), looked for before
// every entry, on every tick of a probe issue gate and after the run.
type recorder struct {
	g    *gpu.GPU
	part []int
	log  []firing
}

func (r *recorder) add(name string) {
	r.seeUCP()
	r.log = append(r.log, firing{r.g.Cycle(), name})
}

func (r *recorder) seeUCP() {
	if r.g == nil {
		return
	}
	if p := r.g.SMs[0].L1.Partition(); len(p) > 0 && (len(r.part) == 0 || &p[0] != &r.part[0]) {
		r.part = p
		r.log = append(r.log, firing{r.g.Cycle(), "ucp"})
	}
}

type probeMem struct{ r *recorder }

func (p *probeMem) Pick(kernels []int) int   { return 0 }
func (p *probeMem) OnIssue(kernel, reqs int) {}
func (p *probeMem) CheckInvariant() error {
	p.r.add("watchdog")
	return nil
}

type probeGate struct{ r *recorder }

func (p *probeGate) CanIssue(kernel int) bool { return true }
func (p *probeGate) OnIssue(kernel int)       {}
func (p *probeGate) Tick(cycle int64)         { p.r.seeUCP() }

// probes installs the probe policies on SM 0.
func (r *recorder) probes() gpu.PolicyFactory {
	return gpu.PolicyFactory{
		MemPolicy: func(smID, n int) sm.MemIssuePolicy {
			if smID != 0 {
				return nil
			}
			return &probeMem{r}
		},
		Gate: func(smID, n int) sm.IssueGate {
			if smID != 0 {
				return nil
			}
			return &probeGate{r}
		},
	}
}

// errSink is what a failing sink returns.
var errSink = errors.New("sink unavailable")

// legObservers gives the leg [start, end) the watchdog, UCP
// repartitioning, two periodic observers (a hook and a sink, the sink
// failing on its second call when failSink is set) and the interrupt
// poll, in that order.
func legObservers(leg *gpu.Options, r *recorder, start, end int64, failSink bool) {
	sinkCalls := 0
	leg.Observers = []gpu.Observer{
		gpu.Watchdog(start, gpu.DefaultProgressWindow),
		gpu.Repartition(start, ucpEvery),
		gpu.Periodic(start, hookEvery, func(g *gpu.GPU) error {
			r.add("hook")
			return nil
		}),
		gpu.Periodic(start, sinkEvery, func(g *gpu.GPU) error {
			r.add("sink")
			if sinkCalls++; failSink && sinkCalls == 2 {
				return errSink
			}
			return nil
		}),
		gpu.Interrupt(start, end, func() bool {
			r.add("interrupt")
			return false
		}),
	}
}

// TestObserverSchedule pins when code runs between cycles, on four
// runs: a plain one, a two-leg one (policies reinstalled between the
// legs, as a Warmup run does), one resumed from a snapshot mid-run and
// one whose sink fails once. want lists every firing but the
// watchdog's, which runs at every cycle after the run's first, before
// anything else of that cycle. The rules it pins:
//
//   - within a cycle: watchdog, UCP, then the observers in list order;
//   - periodic observers fire on multiples of their period strictly
//     after the cycle a leg starts at, the leg's last cycle included;
//   - UCP fires one cycle after a leg starts, then every interval;
//   - the interrupt poll runs on multiples of 1024, the leg's first
//     cycle included and never after its last step;
//   - an observer's error ends the run on the cycle it fired, before
//     the observers after it in the list, and RunCycles returns it.
func TestObserverSchedule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		legs     []int64 // the cycles the run starts at, changes leg at and ends at
		failSink bool
		stop     int64 // when failSink is set: the cycle the failing sink ends the run at
		want     []firing
	}{
		{name: "plain", legs: []int64{0, 4096}, want: []firing{
			{0, "interrupt"}, {1, "ucp"}, {512, "hook"},
			{1024, "hook"}, {1024, "interrupt"},
			{1536, "ucp"}, {1536, "hook"}, {1536, "sink"},
			{2048, "hook"}, {2048, "interrupt"}, {2560, "hook"}, {3071, "ucp"},
			{3072, "hook"}, {3072, "sink"}, {3072, "interrupt"},
			{3584, "hook"}, {4096, "hook"},
		}},
		{name: "two-leg", legs: []int64{0, 2048, 4608}, want: []firing{
			{0, "interrupt"}, {1, "ucp"}, {512, "hook"},
			{1024, "hook"}, {1024, "interrupt"},
			{1536, "ucp"}, {1536, "hook"}, {1536, "sink"},
			{2048, "hook"}, {2048, "interrupt"},
			{2049, "ucp"}, {2560, "hook"},
			{3072, "hook"}, {3072, "sink"}, {3072, "interrupt"},
			{3584, "ucp"}, {3584, "hook"},
			{4096, "hook"}, {4096, "interrupt"},
			{4608, "hook"}, {4608, "sink"},
		}},
		{name: "resumed", legs: []int64{3072, 4608}, want: []firing{
			{3072, "interrupt"}, {3073, "ucp"}, {3584, "hook"},
			{4096, "hook"}, {4096, "interrupt"},
			{4608, "ucp"}, {4608, "hook"}, {4608, "sink"},
		}},
		{name: "sink-fails-once", legs: []int64{0, 4608}, failSink: true, stop: 3072, want: []firing{
			{0, "interrupt"}, {1, "ucp"}, {512, "hook"},
			{1024, "hook"}, {1024, "interrupt"},
			{1536, "ucp"}, {1536, "hook"}, {1536, "sink"},
			{2048, "hook"}, {2048, "interrupt"}, {2560, "hook"}, {3071, "ucp"},
			{3072, "hook"}, {3072, "sink"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg()
			descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
			first, last := tc.legs[0], tc.legs[len(tc.legs)-1]
			r := &recorder{}
			opts := snapshotOpts(&cfg, descs, last, 1, false)
			opts.Policies = r.probes()
			opts.UCP = true
			g, err := gpu.New(cfg, descs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first > 0 {
				// The donor runs unmanaged (a plain Snapshot refuses the
				// probes) with UMONs attached, so the snapshot carries them.
				donorOpts := snapshotOpts(&cfg, descs, first, 1, false)
				donorOpts.UCP = true
				donor, err := gpu.New(cfg, descs, donorOpts)
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.RunCycles(donorOpts); err != nil {
					t.Fatal(err)
				}
				sn, err := donor.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Restore(sn); err != nil {
					t.Fatal(err)
				}
			}
			r.g = g
			for i := 1; i < len(tc.legs); i++ {
				if i > 1 {
					g.InstallPolicies(opts)
				}
				leg := *opts
				leg.Cycles = tc.legs[i] - tc.legs[i-1]
				legObservers(&leg, r, tc.legs[i-1], tc.legs[i], tc.failSink)
				err := g.RunCycles(&leg)
				if tc.failSink {
					if !errors.Is(err, errSink) {
						t.Fatalf("leg %d: RunCycles returned %v, want the sink's error", i, err)
					}
					last = tc.stop
					break
				}
				if err != nil {
					t.Fatalf("leg %d: %v", i, err)
				}
			}
			r.seeUCP()
			if g.Cycle() != last {
				t.Fatalf("run ended at cycle %d, want %d", g.Cycle(), last)
			}

			var want []firing
			next := 0
			for c := first; c <= last; c++ {
				if c > first {
					want = append(want, firing{c, "watchdog"})
				}
				for ; next < len(tc.want) && tc.want[next].cycle == c; next++ {
					want = append(want, tc.want[next])
				}
			}
			if next != len(tc.want) {
				t.Fatalf("want list out of cycle order at %v", tc.want[next])
			}
			if !reflect.DeepEqual(r.log, want) {
				i := 0
				for i < len(r.log) && i < len(want) && r.log[i] == want[i] {
					i++
				}
				t.Fatalf("firing %d differs: got %v, want %v\n got: %v\nwant: %v",
					i, r.log[i:min(i+1, len(r.log))], want[i:min(i+1, len(want))], sparse(r.log), sparse(want))
			}
		})
	}
}

// sparse drops the watchdog's firings, one per cycle, from a log.
func sparse(log []firing) []firing {
	var out []firing
	for _, f := range log {
		if f.name != "watchdog" {
			out = append(out, f)
		}
	}
	return out
}
