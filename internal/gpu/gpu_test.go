package gpu_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

func tinyCfg() config.Config { return config.Scaled(2) }

func getKernel(t *testing.T, name string) *kern.Desc {
	t.Helper()
	d, err := kern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &d
}

func TestIsolatedRunProducesWork(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "bp")
	res, err := gpu.Run(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 20000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{d.MaxTBsPerSM(&cfg)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[0].IPC <= 0 {
		t.Fatal("no progress")
	}
	if res.Kernels[0].L1D.Accesses == 0 {
		t.Fatal("no L1D accesses")
	}
	if res.Cycles != 20000 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := tinyCfg()
	one := func() *kern.Desc { return getKernel(t, "sv") }
	r1, err := gpu.Run(cfg, []*kern.Desc{one()}, &gpu.Options{
		Cycles: 10000, Quota: gpu.UniformQuota(cfg.NumSMs, []int{8}),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gpu.Run(cfg, []*kern.Desc{one()}, &gpu.Options{
		Cycles: 10000, Quota: gpu.UniformQuota(cfg.NumSMs, []int{8}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Kernels[0].Instrs != r2.Kernels[0].Instrs ||
		r1.Kernels[0].L1D.Misses != r2.Kernels[0].L1D.Misses ||
		r1.LSUStallCycles != r2.LSUStallCycles {
		t.Fatalf("nondeterministic: %+v vs %+v", r1.Kernels[0], r2.Kernels[0])
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "sv")
	r1, _ := gpu.Run(cfg, []*kern.Desc{d}, &gpu.Options{Cycles: 10000, Quota: gpu.UniformQuota(cfg.NumSMs, []int{8})})
	cfg2 := tinyCfg()
	cfg2.Seed = 99
	d2 := getKernel(t, "sv")
	r2, _ := gpu.Run(cfg2, []*kern.Desc{d2}, &gpu.Options{Cycles: 10000, Quota: gpu.UniformQuota(cfg2.NumSMs, []int{8})})
	if r1.Kernels[0].Instrs == r2.Kernels[0].Instrs &&
		r1.Kernels[0].L1D.Misses == r2.Kernels[0].L1D.Misses {
		t.Fatal("different seeds produced identical statistics (suspicious)")
	}
}

func TestConcurrentRunBothProgress(t *testing.T) {
	cfg := tinyCfg()
	a, b := getKernel(t, "bp"), getKernel(t, "sv")
	res, err := gpu.Run(cfg, []*kern.Desc{a, b}, &gpu.Options{
		Cycles: 30000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{6, 6}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[0].Instrs == 0 || res.Kernels[1].Instrs == 0 {
		t.Fatalf("a kernel starved entirely: %+v", res.Kernels)
	}
}

func TestSpatialQuotaSeparatesKernels(t *testing.T) {
	cfg := tinyCfg()
	a, b := getKernel(t, "bp"), getKernel(t, "sv")
	descs := []*kern.Desc{a, b}
	quota := core.SpatialQuota(&cfg, descs)
	g, err := gpu.New(cfg, descs, &gpu.Options{Cycles: 10000, Quota: quota})
	if err != nil {
		t.Fatal(err)
	}
	opts := &gpu.Options{Cycles: 10000, Quota: quota}
	g.RunCycles(opts)
	// SM 0 runs kernel 0 only; SM 1 runs kernel 1 only.
	if g.SMs[0].K[1].Instrs != 0 || g.SMs[1].K[0].Instrs != 0 {
		t.Fatal("spatial multitasking leaked kernels across SMs")
	}
	if g.SMs[0].K[0].Instrs == 0 || g.SMs[1].K[1].Instrs == 0 {
		t.Fatal("spatial SMs idle")
	}
}

func TestQuotaValidation(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "bp")
	if _, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{Cycles: 1, Quota: [][]int{{1}}}); err == nil {
		t.Fatal("quota with wrong row count must be rejected")
	}
	if _, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 1, Quota: [][]int{{1, 2}, {1, 2}},
	}); err == nil {
		t.Fatal("quota with wrong column count must be rejected")
	}
}

func TestUCPRepartitions(t *testing.T) {
	cfg := tinyCfg()
	a, b := getKernel(t, "bp"), getKernel(t, "sv")
	descs := []*kern.Desc{a, b}
	opts := &gpu.Options{
		Cycles:    30000,
		Quota:     gpu.UniformQuota(cfg.NumSMs, []int{6, 6}),
		UCP:       true,
		Observers: []gpu.Observer{gpu.Repartition(0, 5000)},
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	part := g.SMs[0].L1.Partition()
	if part == nil {
		t.Fatal("UCP never installed a partition")
	}
	if part[0]+part[1] != cfg.L1D.Ways {
		t.Fatalf("partition %v does not sum to associativity %d", part, cfg.L1D.Ways)
	}
	if part[0] < 1 || part[1] < 1 {
		t.Fatalf("partition %v leaves a kernel without a way", part)
	}
}

// TestRunCyclesLeavesOptionsAlone: a run only reads its Options, so one
// *Options may drive several machines at once. %#v prints every field
// and slice element reachable from the struct, functions by their code
// pointer.
func TestRunCyclesLeavesOptionsAlone(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
	for name, observers := range map[string][]gpu.Observer{
		"ucp": {gpu.Repartition(0, 1000)},
		"checkpointed": {gpu.Periodic(0, 1000, func(g *gpu.GPU) error {
			_, err := g.SnapshotCheckpoint()
			return err
		})},
	} {
		t.Run(name, func(t *testing.T) {
			o := snapshotOpts(&cfg, descs, 3000, 1, false)
			o.Policies.Limiter = func(smID, n int) sm.Limiter { return core.NewDMIL(n) }
			o.UCP = name == "ucp"
			o.BypassL1 = []bool{false, true}
			o.Observers = observers
			before := fmt.Sprintf("%#v", *o)
			g, err := gpu.New(cfg, descs, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.RunCycles(o); err != nil {
				t.Fatal(err)
			}
			g.Close()
			if after := fmt.Sprintf("%#v", *o); after != before {
				t.Fatalf("the run changed its Options\nbefore: %s\nafter:  %s", before, after)
			}
		})
	}
}

func TestPolicyFactoriesPerSM(t *testing.T) {
	cfg := tinyCfg()
	a, b := getKernel(t, "bp"), getKernel(t, "sv")
	built := 0
	opts := &gpu.Options{
		Cycles: 1000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{4, 4}),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter {
				built++
				return core.NewDMIL(n)
			},
		},
	}
	if _, err := gpu.Run(cfg, []*kern.Desc{a, b}, opts); err != nil {
		t.Fatal(err)
	}
	if built != cfg.NumSMs {
		t.Fatalf("limiter factory called %d times, want one per SM (%d)", built, cfg.NumSMs)
	}
}

func TestSeriesAggregation(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "bp")
	res, err := gpu.Run(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 10000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{4}),
		Series: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ser := res.Kernels[0].Series
	if ser == nil {
		t.Fatal("series missing")
	}
	var tot uint64
	for _, v := range ser.Issued {
		tot += uint64(v)
	}
	if tot != res.Kernels[0].Instrs {
		t.Fatalf("series sums to %d, instrs %d", tot, res.Kernels[0].Instrs)
	}
}

// TestMemorySystemConservation: the machine must not wedge — every
// kernel keeps making progress over a long run with heavy memory
// pressure (deadlock regression test).
func TestNoWedgeUnderPressure(t *testing.T) {
	cfg := tinyCfg()
	a, b := getKernel(t, "ks"), getKernel(t, "ax")
	descs := []*kern.Desc{a, b}
	opts := &gpu.Options{
		Cycles: 40000,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{6, 6}),
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var last [2]uint64
	for chunk := 0; chunk < 4; chunk++ {
		for i := 0; i < 10000; i++ {
			g.Step()
		}
		r := g.Result()
		for k := 0; k < 2; k++ {
			if r.Kernels[k].Instrs == last[k] {
				t.Fatalf("kernel %d made no progress in chunk %d (wedged?)", k, chunk)
			}
			last[k] = r.Kernels[k].Instrs
		}
	}
}

func TestResultAggregatesAcrossSMs(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "bp")
	opts := &gpu.Options{Cycles: 5000, Quota: gpu.UniformQuota(cfg.NumSMs, []int{4})}
	g, err := gpu.New(cfg, []*kern.Desc{d}, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.RunCycles(opts)
	r := g.Result()
	var direct uint64
	for _, s := range g.SMs {
		direct += s.K[0].Instrs
	}
	if r.Kernels[0].Instrs != direct {
		t.Fatalf("aggregate %d != sum over SMs %d", r.Kernels[0].Instrs, direct)
	}
	if r.SMCycles != uint64(cfg.NumSMs)*5000 {
		t.Fatalf("SMCycles = %d", r.SMCycles)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := tinyCfg()
	cfg.NumSMs = 0
	d := getKernel(t, "bp")
	if _, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{Cycles: 1, Quota: [][]int{}}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}
