package gpu_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Generated-input equivalence for the whole machine: each seed draws a
// machine size, a 2- or 3-kernel mix of random kernels, GTO or LRR, a
// scheme and a checkpoint cycle, and two runs must agree byte for byte
// on result and trace with the watchdog on: uninterrupted; and
// checkpointed mid-run through the byte codec and continued on a fresh
// machine (which rebuilds every derived index in Restore). The fixed
// workloads of TestParallelStepMatchesSerial and the snapshot tests
// exercise no issue gate, no LRR and no Drain; this does. The SM-level
// twin that compares against the full-scan reference issue stage is
// internal/sm's TestIndexedIssueMatchesFullScan.

var genSchemes = []string{"none", "smk-gate", "smil", "dmil", "qbmi+dmil", "dynws"}

type genCase struct {
	cfg     config.Config
	descs   []*kern.Desc
	quota   [][]int
	scheme  string
	cycles  int64
	splitAt int64
	smkIPC  []float64
	limits  []int
}

func drawCase(seed uint64) genCase {
	rng := xrand.New(seed)
	cfg := config.Scaled(1 + rng.Intn(3))
	cfg.Seed = rng.Uint64()
	if rng.Bool(0.5) {
		cfg.SM.Scheduler = config.LRR
	}
	c := genCase{
		cfg:    cfg,
		scheme: genSchemes[seed%uint64(len(genSchemes))], // every scheme within six consecutive seeds
		cycles: int64(4000 + rng.Intn(3000)),
	}
	c.splitAt = 500 + int64(rng.Intn(int(c.cycles)-1000))
	// Four draws that once chose worker counts for the deleted fan-out
	// engine: made and discarded, so every seed still generates the
	// machine it always has.
	for i := 0; i < 4; i++ {
		rng.Intn(3)
	}
	nk := 2 + rng.Intn(2)
	row := make([]int, nk)
	for k := 0; k < nk; k++ {
		d := kern.RandomDesc(rng, &c.cfg)
		if rng.Bool(0.5) {
			d.InstrsPerWarp = uint64(20 + rng.Intn(300))
		}
		c.descs = append(c.descs, &d)
		row[k] = 1 + rng.Intn(max(d.MaxTBsPerSM(&c.cfg)/nk, 1))
		c.smkIPC = append(c.smkIPC, 0.05+rng.Float64())
		c.limits = append(c.limits, 1+rng.Intn(24))
	}
	c.quota = gpu.UniformQuota(c.cfg.NumSMs, row)
	return c
}

func (c *genCase) String() string {
	return fmt.Sprintf("scheme=%s sms=%d sched=%d kernels=%d quota=%v cycles=%d split=%d",
		c.scheme, c.cfg.NumSMs, c.cfg.SM.Scheduler, len(c.descs), c.quota[0], c.cycles, c.splitAt)
}

// options builds fully instrumented Options with fresh policy instances
// and the observers of a leg from cycle 0. observers builds those of a
// leg of the same machine from start: the watchdog, UCP repartitioning
// when o.UCP is set, and the DynWS controller of the dynws scheme.
func (c *genCase) options() (o *gpu.Options, observers func(start int64) []gpu.Observer) {
	o = &gpu.Options{
		Cycles: c.cycles,
		Quota:  c.quota,
		Trace:  trace.New(1 << 20),
	}
	var hook func(*gpu.GPU) error
	switch c.scheme {
	case "smk-gate":
		o.Policies.Gate = func(smID, n int) sm.IssueGate { return core.NewSMKGate(c.smkIPC, 700) }
	case "smil":
		o.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewSMIL(c.limits) }
	case "dmil":
		o.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
	case "qbmi+dmil":
		o.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, nil) }
		o.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
	case "dynws":
		// Online profiling rounds: SetQuota + Drain on every SM at each
		// round boundary, then the chosen partition.
		d := core.NewDynWS(&c.cfg, c.descs)
		d.SettleCycles, d.WindowCycles = 200, 300
		hook = d.Hook
	}
	observers = func(start int64) []gpu.Observer {
		obs := []gpu.Observer{gpu.Watchdog(start, gpu.DefaultProgressWindow)}
		if o.UCP {
			obs = append(obs, gpu.Repartition(start, 1500))
		}
		if hook != nil {
			obs = append(obs, gpu.Periodic(start, 100, hook))
		}
		return obs
	}
	o.Observers = observers(0)
	return o, observers
}

// run simulates the case. With split > 0 the run stops there, goes
// through SnapshotCheckpoint -> encode -> decode -> RestoreCheckpoint
// into a fresh machine and continues; the returned trace then holds the
// events from split on.
func (c *genCase) run(t testing.TB, split int64) (string, *trace.Buffer) {
	t.Helper()
	o, observers := c.options()
	g, err := gpu.New(c.cfg, c.descs, o)
	if err != nil {
		t.Fatalf("%v\n%s", err, c)
	}
	if split > 0 {
		leg := *o
		leg.Cycles = split
		if err := g.RunCycles(&leg); err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		sn, err := g.SnapshotCheckpoint()
		if err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		blob, err := gpu.EncodeSnapshot(sn)
		if err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		dec, err := gpu.DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		o, observers = c.options()
		g2, err := gpu.New(c.cfg, c.descs, o)
		if err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		if err := g2.RestoreCheckpoint(dec); err != nil {
			t.Fatalf("%v\n%s", err, c)
		}
		g = g2
		o.Cycles = c.cycles - split
		o.Observers = observers(split)
	}
	if err := g.RunCycles(o); err != nil {
		t.Fatalf("split=%d: %v\n%s", split, err, c)
	}
	return marshalResult(t, g), o.Trace
}

func checkCase(t testing.TB, seed uint64) {
	t.Helper()
	c := drawCase(seed)
	if err := sm.Validate(&c.cfg, c.descs); err != nil {
		t.Fatalf("generated case invalid: %v", err)
	}
	wantJS, wantTr := c.run(t, 0)

	// The DynWS controller lives in the hook closure, outside what a
	// checkpoint carries (the runner never checkpoints hooked runs), so
	// its cases end here: SetQuota and Drain under the watchdog.
	if c.scheme == "dynws" {
		return
	}
	js, tr := c.run(t, c.splitAt)
	if js != wantJS {
		t.Fatalf("seed %d: checkpoint-restored result diverged from uninterrupted\n%s\nwant: %s\ngot:  %s", seed, &c, wantJS, js)
	}
	if renderSince(tr, c.splitAt) != renderSince(wantTr, c.splitAt) {
		t.Fatalf("seed %d: checkpoint-restored trace diverged from uninterrupted after the split\n%s", seed, &c)
	}
}

func TestGeneratedWorkloadsMatchSerial(t *testing.T) {
	n := uint64(18)
	if testing.Short() {
		n = 6
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkCase(t, seed)
	}
}

// FuzzGeneratedWorkloadsMatchSerial explores case seeds beyond the fixed
// ones (CI runs it for a few seconds; see the fuzz-smoke step).
func FuzzGeneratedWorkloadsMatchSerial(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { checkCase(t, seed) })
}
