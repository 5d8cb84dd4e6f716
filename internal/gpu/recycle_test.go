package gpu_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
)

// Recycling: New builds in the memory of a machine Close has retired.
// These tests hold it to "capacity survives, state does not": a machine
// built on a dirty donor's memory must be, byte for byte, the machine
// New builds from nothing.

// donor describes a machine run for its memory only: the memory-intensive
// pair sv+cd at full occupancy on 2 SMs, optionally with everything New
// can attach (series, UMONs, bypass vector) attached.
type donor struct {
	attached bool
}

// park runs a donor until nothing about it is clean, closes it and
// returns what identifies its memory (an SM object: New reuses them in
// place).
func (d donor) park(t testing.TB) *sm.SM {
	t.Helper()
	cfg := tinyCfg()
	descs := []*kern.Desc{kernel(t, "sv"), kernel(t, "cd")}
	const settle, limit = 4000, 8000
	o := &gpu.Options{
		Cycles: limit, // series buckets are sized from it
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{descs[0].MaxTBsPerSM(&cfg) / 2, descs[1].MaxTBsPerSM(&cfg) / 2}),
	}
	if d.attached {
		o.Series = true
		o.UCP = true
		o.BypassL1 = []bool{false, true}
	}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	// UCP, when attached, restarts its schedule with every leg.
	run := func(cycles int64) error {
		leg := *o
		leg.Cycles = cycles
		if o.UCP {
			leg.Observers = []gpu.Observer{gpu.Repartition(g.Cycle(), 1000)}
		}
		return g.RunCycles(&leg)
	}
	if err := run(settle); err != nil {
		t.Fatal(err)
	}
	// Step on to a cycle with requests in every holder, armed stall memos,
	// sleepers filed in the wake wheel and MSHRs taken in every L1; by
	// then the L1s have missed more often than they have lines, so every
	// set has been allocated in. (An L1 with a bypassing kernel ends no
	// cycle with its memo armed: its miss queue never runs dry, and every
	// PopMiss drops the memo.)
	for {
		f := gpu.InFlightOf(g)
		l1memo, l2memo := gpu.ArmedStallMemos(g)
		dirty := f.SM > 0 && f.L2 > 0 && f.DRAM > 0 && f.PartInQ > 0 && f.PartResp > 0 && f.ReqNet > 0 && f.RespNet > 0 &&
			(l1memo > 0 || d.attached) && l2memo > 0 && sleepingCandidates(g) > 0
		for _, s := range g.SMs {
			dirty = dirty && s.L1.MSHRInUse() > 0
		}
		if dirty {
			break
		}
		if g.Cycle() == limit {
			t.Fatalf("donor not dirty at any cycle in [%d,%d]: at the last, in flight %+v, armed memos %d/%d, sleepers %d",
				settle, limit, f, l1memo, l2memo, sleepingCandidates(g))
		}
		if err := run(1); err != nil {
			t.Fatal(err)
		}
	}
	var misses uint64
	for _, k := range g.Result().Kernels {
		misses += k.L1D.Misses
	}
	if lines := uint64(cfg.L1D.SizeBytes / cfg.L1D.LineBytes * cfg.NumSMs); misses < 4*lines {
		t.Fatalf("donor missed %d times in L1s of %d lines: not every set has been allocated in", misses, lines)
	}
	mark := g.SMs[0]
	g.Close()
	return mark
}

func kernel(t testing.TB, name string) *kern.Desc {
	t.Helper()
	d, err := kern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &d
}

// newOn builds a machine on the memory of a freshly parked donor (d
// non-nil) or on memory nothing has used. The pool may drop what is put
// into it (it does so at random under the race detector, and at a GC),
// so parking is repeated until New has picked the donor up.
func newOn(t testing.TB, d *donor, cfg config.Config, descs []*kern.Desc, o *gpu.Options) *gpu.GPU {
	t.Helper()
	for attempt := 0; ; attempt++ {
		gpu.DrainRetired()
		var mark *sm.SM
		if d != nil {
			mark = d.park(t)
		}
		g, err := gpu.New(cfg, descs, o)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil || g.SMs[0] == mark {
			return g
		}
		if attempt == 50 {
			t.Fatal("New never built on the parked donor's memory")
		}
	}
}

// outcome is everything a run leaves behind that must not depend on the
// memory it ran in.
type outcome struct {
	result, trace string
	snapshot      []byte // EncodeSnapshot at the case's split cycle
}

// runOn runs the generated case on donor memory (or fresh, d == nil) with
// the attachments toggled as asked, taking an encoded checkpoint mid-run.
func (c *genCase) runOn(t testing.TB, d *donor, attached bool) outcome {
	t.Helper()
	o, observers := c.options()
	if attached {
		o.Series = true
		o.UCP = true
		o.BypassL1 = make([]bool, len(c.descs))
		o.BypassL1[len(c.descs)-1] = true
		o.Observers = observers(0)
	}
	g := newOn(t, d, c.cfg, c.descs, o)
	leg := *o
	leg.Cycles = c.splitAt
	if err := g.RunCycles(&leg); err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	var out outcome
	if out.snapshot, err = gpu.EncodeSnapshot(sn); err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	leg.Cycles = c.cycles - c.splitAt
	leg.Observers = observers(c.splitAt)
	if err := g.RunCycles(&leg); err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	out.result, out.trace = marshalResult(t, g), trace.Render(o.Trace.Snapshot())
	g.Close()
	return out
}

// TestRecycledMachineMatchesFresh runs each of the generated cases of
// TestGeneratedWorkloadsMatchSerial — 1 to 3 SMs against the donor's 2,
// 2 or 3 kernels against its 2, every scheme, GTO and LRR, the watchdog
// on — once on fresh memory and once on a dirty donor's, and requires the
// same result, trace and mid-run checkpoint bytes. Over the seeds the
// attachments are toggled all four ways between donor and case (on over
// off must not leave a UMON, a bypass vector or series buckets behind;
// off over on must build them). Then the engine goldens and the
// checkpoint wire-format golden run again, unmodified, in a process
// whose retired-machine pool holds that donor.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	n := uint64(18)
	if testing.Short() {
		n = 6
	}
	for seed := uint64(1); seed <= n; seed++ {
		c := drawCase(seed)
		attached := seed&1 == 0
		want := c.runOn(t, nil, attached)
		got := c.runOn(t, &donor{attached: seed&2 == 0}, attached)
		if got.result != want.result {
			t.Fatalf("seed %d: result on recycled memory differs from fresh\n%s\nfresh:    %s\nrecycled: %s", seed, &c, want.result, got.result)
		}
		if got.trace != want.trace {
			t.Fatalf("seed %d: trace on recycled memory differs from fresh\n%s", seed, &c)
		}
		if !bytes.Equal(got.snapshot, want.snapshot) {
			t.Fatalf("seed %d: checkpoint at cycle %d on recycled memory differs from fresh (%d vs %d bytes)\n%s",
				seed, c.splitAt, len(got.snapshot), len(want.snapshot), &c)
		}
	}
	donor{attached: true}.park(t)
	t.Run("goldens", TestParallelStepMatchesSerial)
	donor{}.park(t)
	t.Run("wire-format", TestEncodeSnapshotGolden)
}

// TestResultAndSnapshotOwnTheirMemory: what a caller takes from a machine
// before Close stays what it was when other runs reuse the machine's
// memory; Close twice is Close once; a machine whose run returned an
// error is not parked; and machines cycle through the pool from two
// goroutines at once (CI runs this under -race).
func TestResultAndSnapshotOwnTheirMemory(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{kernel(t, "sv"), kernel(t, "cd")}
	opts := func(cycles int64) *gpu.Options {
		return &gpu.Options{Cycles: cycles, Quota: gpu.UniformQuota(cfg.NumSMs, []int{2, 2}), Series: true}
	}

	o := opts(4000)
	g := newOn(t, nil, cfg, descs, o)
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	res := g.Result()
	sn, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resBefore, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	snBefore, err := gpu.EncodeSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	mark := g.SMs[0]
	g.Close()
	g.Close()
	if g.SMs != nil || g.Cycle() != 0 {
		t.Fatal("a closed machine still holds state")
	}
	// Two other runs in that memory. The first New must get the machine
	// and the second must not get it again, although it was closed twice.
	reused := false
	for i := 0; i < 2; i++ {
		o2 := opts(3000)
		o2.Quota = gpu.UniformQuota(cfg.NumSMs, []int{1, 3})
		g2, err := gpu.New(cfg, descs, o2)
		if err != nil {
			t.Fatal(err)
		}
		if g2.SMs[0] == mark {
			if reused {
				t.Fatal("a machine closed twice was handed out twice")
			}
			reused = true
		}
		if err := g2.RunCycles(o2); err != nil {
			t.Fatal(err)
		}
		defer g2.Close()
	}
	resAfter, _ := json.Marshal(res)
	snAfter, err := gpu.EncodeSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resAfter, resBefore) {
		t.Errorf("a Result taken before Close changed when the memory was reused\nbefore: %s\nafter:  %s", resBefore, resAfter)
	}
	if !bytes.Equal(snAfter, snBefore) {
		t.Error("a Snapshot taken before Close changed when the memory was reused")
	}

	// A machine whose run returned an error keeps its state and is not
	// parked, closed once or twice: interrupted, then failed by the
	// watchdog.
	interrupted := opts(4000)
	interrupted.Observers = []gpu.Observer{gpu.Interrupt(0, 4000, func() bool { return true })}
	wedged := opts(4000)
	wedged.Policies.Gate = func(smID, n int) sm.IssueGate { return blockedGate{} }
	wedged.Observers = []gpu.Observer{gpu.Watchdog(0, 500)}
	for name, o := range map[string]*gpu.Options{"interrupted": interrupted, "watchdog": wedged} {
		g := newOn(t, nil, cfg, descs, o)
		err := g.RunCycles(o)
		var ie *sm.InvariantError
		if !errors.Is(err, gpu.ErrInterrupted) && !errors.As(err, &ie) {
			t.Fatalf("%s: run returned %v, want a failure", name, err)
		}
		mark := g.SMs[0]
		g.Close()
		g.Close()
		if g.SMs == nil || g.SMs[0] != mark {
			t.Fatalf("%s: Close took the failed machine apart", name)
		}
		o2 := opts(10)
		g2, err := gpu.New(cfg, descs, o2)
		if err != nil {
			t.Fatal(err)
		}
		if g2.SMs[0] == mark {
			t.Fatalf("%s: a machine whose run failed was parked and reused", name)
		}
		g2.Close()
	}

	// Two goroutines, each closing machines the other may build on.
	o = opts(1500)
	want, err := gpu.Run(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				r, err := gpu.Run(cfg, descs, opts(1500))
				if err != nil {
					t.Error(err)
					return
				}
				if js, _ := json.Marshal(r); !bytes.Equal(js, wantJS) {
					t.Errorf("run %d on a machine cycled through the pool diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCycleLoopAllocatesNothingOnRecycledMemory is the steady-state
// allocation gate: the second and later runs of one job allocate a small
// constant (the result, the policy table, the parked machine's header),
// the same at 2 000 and at 8 000 cycles, and draw every request and token
// from what the previous machine's pool owned. The count is the least of
// several runs on memory recycled twice over (allocGate).
func TestCycleLoopAllocatesNothingOnRecycledMemory(t *testing.T) {
	cfg := config.Scaled(4)
	short, long := allocGate(t, cfg, 2000, 8000)
	if short != long || long > 8 {
		t.Errorf("gpu.Run on recycled memory allocates %v times at 2000 cycles and %v at 8000, want the same small constant", short, long)
	}
}

// TestSplitMachineAllocatesNothingOnRecycledMemory is the same gate at
// the 16 SMs whose SM phase may split, where the SMs the helper ticks
// draw from a pool of their own. A run that starts a helper pays for it
// once (the runtime may allocate the goroutine too, so the count is
// bounded, not pinned); and once a machine has settled, neither pool
// allocates: the stores of the helper's SMs, which retire on the memory
// side, go back to the helper's pool.
func TestSplitMachineAllocatesNothingOnRecycledMemory(t *testing.T) {
	cfg := config.Default()
	if short, long := allocGate(t, cfg, 1000, 4000); short > 16 || long > 16 {
		t.Errorf("gpu.Run on recycled memory allocates %v times at 1000 cycles and %v at 4000, want at most 16", short, long)
	}

	// On memory nothing has used, the pools' history is the job's alone:
	// this one has reached its peak in flight by cycle 10 000.
	const settle, leg = 10000, 4000
	gpu.DrainRetired()
	g, o := allocMachine(t, cfg, settle)
	defer g.Close()
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	reqs0, toks0 := gpu.PoolAllocs(g)
	o.Cycles = leg
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	if reqs, toks := gpu.PoolAllocs(g); reqs != reqs0 || toks != toks0 {
		t.Errorf("cycles %d to %d allocated %d requests and %d tokens, want none", settle, settle+leg, reqs-reqs0, toks-toks0)
	}
}

// allocJob is sv+cd at full occupancy on cfg.
func allocJob(t *testing.T, cfg config.Config, cycles int64) ([]*kern.Desc, *gpu.Options) {
	t.Helper()
	descs := []*kern.Desc{kernel(t, "sv"), kernel(t, "cd")}
	quota := gpu.UniformQuota(cfg.NumSMs, []int{descs[0].MaxTBsPerSM(&cfg) / 2, descs[1].MaxTBsPerSM(&cfg) / 2})
	return descs, &gpu.Options{Cycles: cycles, Quota: quota}
}

func allocMachine(t *testing.T, cfg config.Config, cycles int64) (*gpu.GPU, *gpu.Options) {
	t.Helper()
	descs, o := allocJob(t, cfg, cycles)
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	return g, o
}

// allocGate returns the least heap allocations of a run of sv+cd (New,
// RunCycles, Result, Close: gpu.Run) on recycled memory at short and at
// long cycles, measured at the test's GOMAXPROCS (a run that splits
// counts its helper's), and fails t unless the same job on the memory of
// its own predecessor allocates no request or token.
//
// A run counts only when its machine and its predecessor were both built
// on the memory of the machine closed before them. The pool may drop a
// parked machine (at a GC; at random under the race detector): the run
// on fresh memory allocates the whole machine, and the run after it a
// couple of objects more than the steady state, so taking the least of
// every run reads high whenever drops hit most of the samples.
func allocGate(t *testing.T, cfg config.Config, short, long int64) (atShort, atLong uint64) {
	t.Helper()
	const samples, most = 8, 400
	perRun := func(cycles int64) uint64 {
		descs, o := allocJob(t, cfg, cycles)
		least := ^uint64(0)
		var prev *sm.SM // SMs[0] of the machine closed last
		prevRecycled := false
		for n, runs := 0, 0; n < samples; runs++ {
			if runs == most {
				t.Fatalf("%d of %d runs at %d cycles were on memory recycled twice, want %d", n, most, cycles, samples)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := gpu.New(cfg, descs, o)
			if err != nil {
				t.Fatal(err)
			}
			mark := g.SMs[0]
			if err := g.RunCycles(o); err != nil {
				t.Fatal(err)
			}
			g.Result()
			g.Close()
			runtime.ReadMemStats(&after)
			recycled := mark == prev
			if recycled && prevRecycled {
				least = min(least, after.Mallocs-before.Mallocs)
				n++
			}
			prev, prevRecycled = mark, recycled
		}
		return least
	}
	atShort, atLong = perRun(short), perRun(long)

	descs, o := allocJob(t, cfg, long)
	for attempt := 0; ; attempt++ {
		g, err := gpu.New(cfg, descs, o)
		if err != nil {
			t.Fatal(err)
		}
		mark := g.SMs[0]
		if err := g.RunCycles(o); err != nil {
			t.Fatal(err)
		}
		g.Close()
		if g, err = gpu.New(cfg, descs, o); err != nil {
			t.Fatal(err)
		}
		if g.SMs[0] != mark {
			if attempt == 50 {
				t.Fatal("New never built on the closed machine's memory")
			}
			continue
		}
		if err := g.RunCycles(o); err != nil {
			t.Fatal(err)
		}
		if reqs, toks := gpu.PoolAllocs(g); reqs != 0 || toks != 0 {
			t.Errorf("the same job on recycled memory allocated %d requests and %d tokens, want none", reqs, toks)
		}
		g.Close()
		return atShort, atLong
	}
}
