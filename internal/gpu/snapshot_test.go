package gpu_test

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
)

// snapshotOpts builds the Options for the snapshot determinism tests:
// fully instrumented (trace, series, watchdog) when full is set, so the
// snapshot has to carry series buckets and survive invariant checking.
// workers goes into the deprecated Options.Workers, which nothing reads.
func snapshotOpts(cfg *config.Config, descs []*kern.Desc, totalCycles int64, workers int, full bool) *gpu.Options {
	quota := make([]int, len(descs))
	for i, d := range descs {
		q := d.MaxTBsPerSM(cfg) / len(descs)
		if q < 1 {
			q = 1
		}
		quota[i] = q
	}
	o := &gpu.Options{
		Cycles:  totalCycles,
		Quota:   gpu.UniformQuota(cfg.NumSMs, quota),
		Workers: workers,
	}
	if full {
		o.Trace = trace.New(1 << 16)
		o.Series = true
		o.Observers = []gpu.Observer{gpu.Watchdog(0, gpu.DefaultProgressWindow)}
	}
	return o
}

// legOf returns the leg of o that runs the next n cycles of g. Observers
// belong to the leg they were built for, so a fully instrumented leg
// gets a watchdog of its own.
func legOf(o *gpu.Options, g *gpu.GPU, n int64, full bool) *gpu.Options {
	leg := *o
	leg.Cycles = n
	if full {
		leg.Observers = []gpu.Observer{gpu.Watchdog(g.Cycle(), gpu.DefaultProgressWindow)}
	}
	return &leg
}

// TestSnapshotRestoreContinueMatchesUninterrupted is the snapshot
// layer's core contract: run-to-N, snapshot, restore into a *fresh*
// machine and continue must be byte-identical (same stats.RunResult
// JSON, same post-snapshot trace events) to an uninterrupted run, with
// the machine fully instrumented. The workers=8 leg is the same run with
// the deprecated worker field set: it keeps its name from the time the
// field selected a fan-out, and what it pins now is that the field is
// inert on the snapshot and restore paths too.
//
// The restore happens only after the snapshotted machine has itself run
// to completion: by then every request that was in flight at the
// snapshot point has been retired, released and pool-poisoned, and its
// storage reused — so this test also proves release-time poisoning
// never reaches into a taken snapshot (the copy-on-snapshot
// discipline). Run under -race it additionally proves the restored
// machine shares no storage with the snapshot source.
//
// The snapshot is taken on a cycle where the issue index hides at least
// one warp a full scan would visit — an issue candidate asleep behind a
// result latency, its wake still filed in the wheel — and where an L1
// and an L2 partition each hold an armed stall memo, and the second
// restore lands in a machine that has already run, whose derived state
// therefore holds another state's contents: a Restore that forgot to
// rebuild the masks, re-file the wakes or drop the memos cannot produce
// the uninterrupted result (and the fresh machine, which starts without
// the memos the snapshotted one was answering from, can only do so if
// the memo answers exactly what a full evaluation would).
func TestSnapshotRestoreContinueMatchesUninterrupted(t *testing.T) {
	const total = 8000
	for _, tc := range []struct {
		name    string
		kernels []string
		full    bool
	}{
		{name: "plain", kernels: []string{"bp", "sv"}},
		{name: "instrumented", kernels: []string{"sv", "cd"}, full: true},
	} {
		for _, workers := range []int{1, 8} {
			t.Run(tc.name+"/workers="+itoa(workers), func(t *testing.T) {
				cfg := tinyCfg()
				descs := make([]*kern.Desc, 0, len(tc.kernels))
				for _, n := range tc.kernels {
					descs = append(descs, getKernel(t, n))
				}
				// Reference: one uninterrupted run.
				oA := snapshotOpts(&cfg, descs, total, workers, tc.full)
				gA, err := gpu.New(cfg, descs, oA)
				if err != nil {
					t.Fatal(err)
				}
				if err := gA.RunCycles(oA); err != nil {
					t.Fatal(err)
				}
				refJS := marshalResult(t, gA)

				// Snapshotted run: warm leg up to the first cycle from
				// 4000 on with a sleeping issue candidate and armed stall
				// memos on both cache levels, snapshot, continue leg.
				oB := snapshotOpts(&cfg, descs, total, workers, tc.full)
				gB, err := gpu.New(cfg, descs, oB)
				if err != nil {
					t.Fatal(err)
				}
				step := int64(4000)
				derivedLive := func() bool {
					l1, l2 := gpu.ArmedStallMemos(gB)
					return sleepingCandidates(gB) > 0 && l1 > 0 && l2 > 0
				}
				for gB.Cycle() < 4000 || !derivedLive() {
					if gB.Cycle() >= total/2+500 {
						t.Fatalf("no cycle in 4000..%d with an issue candidate asleep and a stall memo armed in an L1 and an L2; pick another workload", gB.Cycle())
					}
					if err := gB.RunCycles(legOf(oB, gB, step, tc.full)); err != nil {
						t.Fatal(err)
					}
					step = 1
				}
				warm := gB.Cycle()
				cont := total - warm
				var refSuffix string
				if oA.Trace != nil {
					refSuffix = renderSince(oA.Trace, warm)
				}
				sn, err := gB.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if sn.Cycle() != warm {
					t.Fatalf("snapshot cycle = %d, want %d", sn.Cycle(), warm)
				}
				if err := gB.RunCycles(legOf(oB, gB, cont, tc.full)); err != nil {
					t.Fatal(err)
				}
				// Taking the snapshot must not perturb the run.
				if js := marshalResult(t, gB); js != refJS {
					t.Fatalf("snapshotted run diverged from uninterrupted run\nref: %s\ngot: %s", refJS, js)
				}

				// Restored run: a fresh machine seeded from the snapshot.
				// gB has fully retired (and pool-poisoned) the requests
				// that were in flight at the snapshot point by now.
				oC := snapshotOpts(&cfg, descs, total, workers, tc.full)
				gC, err := gpu.New(cfg, descs, oC)
				if err != nil {
					t.Fatal(err)
				}
				if err := gC.Restore(sn); err != nil {
					t.Fatal(err)
				}
				if err := gC.RunCycles(legOf(oC, gC, cont, tc.full)); err != nil {
					t.Fatal(err)
				}
				if js := marshalResult(t, gC); js != refJS {
					t.Fatalf("restored run diverged from uninterrupted run\nref: %s\ngot: %s", refJS, js)
				}
				if oC.Trace != nil {
					if got := renderSince(oC.Trace, warm); got != refSuffix {
						t.Errorf("restored run's trace diverged from the uninterrupted run's post-snapshot events")
					}
				}

				// A second restore from the same snapshot must work too
				// (one snapshot seeds many family members), here into a
				// machine that has already run a different stretch.
				oD := snapshotOpts(&cfg, descs, total, workers, tc.full)
				oD.Trace = nil
				gD, err := gpu.New(cfg, descs, oD)
				if err != nil {
					t.Fatal(err)
				}
				if err := gD.RunCycles(legOf(oD, gD, 1500, tc.full)); err != nil {
					t.Fatal(err)
				}
				if err := gD.Restore(sn); err != nil {
					t.Fatal(err)
				}
				if err := gD.RunCycles(legOf(oD, gD, cont, tc.full)); err != nil {
					t.Fatal(err)
				}
				if js := marshalResult(t, gD); js != refJS {
					t.Fatalf("run restored into a used machine diverged from uninterrupted run\nref: %s\ngot: %s", refJS, js)
				}
			})
		}
	}
}

// TestSnapshotRejectsStatefulPolicies: policy objects can hold cross-SM
// state outside the engine's object graph, so snapshotting a managed
// machine must fail loudly instead of producing a silently torn copy.
func TestSnapshotRejectsStatefulPolicies(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "sv")
	g, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 100,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{4}),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter { return core.NewDMIL(1) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Snapshot(); err == nil {
		t.Fatal("Snapshot() succeeded with a stateful limiter installed")
	}
}

// TestInstallPoliciesAfterWarmup: the warm-then-manage sequence — build
// unmanaged, run, install stateful policies, keep running — must work
// and re-arm the snapshot guard.
func TestInstallPoliciesAfterWarmup(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
	o := &gpu.Options{
		Cycles: 4000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{2, 2}),
	}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	warm := *o
	warm.Cycles = 2000
	if err := g.RunCycles(&warm); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Snapshot(); err != nil {
		t.Fatalf("unmanaged snapshot failed: %v", err)
	}
	managed := *o
	managed.Cycles = 2000
	managed.Policies = gpu.PolicyFactory{
		Limiter: func(smID, n int) sm.Limiter { return core.NewDMIL(n) },
	}
	g.InstallPolicies(&managed)
	if err := g.RunCycles(&managed); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Snapshot(); err == nil {
		t.Fatal("Snapshot() succeeded after stateful policies were installed")
	}
	if got := g.Result().Cycles; got != 4000 {
		t.Fatalf("cycles after two legs = %d, want 4000", got)
	}
}

// TestRestoreGeometryMismatch: restoring into a machine with a
// different shape must fail instead of corrupting it.
func TestRestoreGeometryMismatch(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "bp")
	o := &gpu.Options{Cycles: 500, Quota: gpu.UniformQuota(cfg.NumSMs, []int{2})}
	g, err := gpu.New(cfg, []*kern.Desc{d}, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	sn, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Two kernel slots instead of one: per-kernel state widths differ.
	g2, err := gpu.New(cfg, []*kern.Desc{d, getKernel(t, "sv")}, &gpu.Options{
		Cycles: 500, Quota: gpu.UniformQuota(cfg.NumSMs, []int{1, 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Restore(sn); err == nil {
		t.Fatal("Restore() succeeded across mismatched kernel-slot counts")
	}
}

func marshalResult(t testing.TB, g *gpu.GPU) string {
	t.Helper()
	js, err := json.Marshal(g.Result())
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// sleepingCandidates counts, over all SMs, the warps the issue index
// hides at the machine's current cycle although a full scan would visit
// them: issue candidates asleep behind a result latency.
func sleepingCandidates(g *gpu.GPU) int {
	n := 0
	for _, s := range g.SMs {
		n += s.SleepingCandidates()
	}
	return n
}

// renderSince renders the buffered trace events at or after cycle.
func renderSince(buf *trace.Buffer, cycle int64) string {
	var kept []trace.Event
	for _, e := range buf.Snapshot() {
		if e.Cycle >= cycle {
			kept = append(kept, e)
		}
	}
	return trace.Render(kept)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
