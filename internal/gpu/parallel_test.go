package gpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
)

// parallelWorkload is one determinism scenario: a kernel mix plus the
// option toggles that exercise different engine paths.
type parallelWorkload struct {
	name    string
	kernels []string
	cycles  int64
	full    bool // Trace + Series + Check on
	ckpt    bool // Trace + periodic encoded checkpoints, digest-compared
}

// runWorkload executes the workload with the given SM and partition
// worker counts and returns the marshalled RunResult, the rendered
// trace (empty when tracing is off), and a digest over every encoded
// mid-run checkpoint (empty when checkpointing is off).
func runWorkload(t *testing.T, w parallelWorkload, workers, partWorkers int) (string, string, string) {
	t.Helper()
	cfg := tinyCfg()
	descs := make([]*kern.Desc, 0, len(w.kernels))
	for _, n := range w.kernels {
		descs = append(descs, getKernel(t, n))
	}
	quota := make([]int, len(descs))
	for i, d := range descs {
		q := d.MaxTBsPerSM(&cfg) / len(descs)
		if q < 1 {
			q = 1
		}
		quota[i] = q
	}
	o := &gpu.Options{
		Cycles:      w.cycles,
		Quota:       gpu.UniformQuota(cfg.NumSMs, quota),
		Workers:     workers,
		PartWorkers: partWorkers,
	}
	if w.full {
		o.Trace = trace.New(1 << 12)
		o.Series = true
		o.Check = gpu.CheckConfig{Enabled: true}
	}
	ckptHash := sha256.New()
	asleepAtCkpt := 0
	if w.ckpt {
		o.Trace = trace.New(1 << 12)
		o.CheckpointEvery = w.cycles / 3
		o.Checkpoint = func(g *gpu.GPU, cycle int64) error {
			asleepAtCkpt += sleepingCandidates(g)
			sn, err := g.SnapshotCheckpoint()
			if err != nil {
				return err
			}
			data, err := gpu.EncodeSnapshot(sn)
			if err != nil {
				return err
			}
			ckptHash.Write(data)
			return nil
		}
	}
	res, err := gpu.Run(cfg, descs, o)
	if err != nil {
		t.Fatalf("%s workers=%d partWorkers=%d: %v", w.name, workers, partWorkers, err)
	}
	// The encoded bytes must not depend on derived index state, so at
	// least one checkpoint has to land where the index is doing work.
	if w.ckpt && asleepAtCkpt == 0 {
		t.Fatalf("%s: no checkpoint fell on a cycle with a sleeping issue candidate; move CheckpointEvery", w.name)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var tr string
	if o.Trace != nil {
		tr = trace.Render(o.Trace.Snapshot())
	}
	var ck string
	if w.ckpt {
		ck = hex.EncodeToString(ckptHash.Sum(nil))
	}
	return string(js), tr, ck
}

// TestParallelStepMatchesSerial is the engine's core determinism
// contract: for every (SM workers, partition workers) combination a run
// produces byte-identical results — the same stats.RunResult JSON, the
// same rendered trace, the same encoded checkpoint bytes — as the fully
// serial (1,1) run. Any combination beyond (1,1) also enables the
// pipelined step, which overlaps the memory side of cycle N with the SM
// phase of cycle N+1, so the matrix exercises staging, commits, and the
// flush discipline at checkpoints. Run under -race this also proves the
// phases share no mutable state across workers.
func TestParallelStepMatchesSerial(t *testing.T) {
	workloads := []parallelWorkload{
		{name: "1kernel", kernels: []string{"bp"}, cycles: 6000},
		{name: "2kernelCKE", kernels: []string{"bp", "sv"}, cycles: 6000},
		{name: "2kernelCKE-full", kernels: []string{"sv", "cd"}, cycles: 6000, full: true},
		{name: "2kernelCKE-trace-ckpt", kernels: []string{"bp", "cd"}, cycles: 6000, ckpt: true},
	}
	counts := []int{1, 2, 8}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			baseJS, baseTr, baseCk := runWorkload(t, w, 1, 1)
			for _, workers := range counts {
				for _, partWorkers := range counts {
					if workers == 1 && partWorkers == 1 {
						continue
					}
					js, tr, ck := runWorkload(t, w, workers, partWorkers)
					label := fmt.Sprintf("workers=%d partWorkers=%d", workers, partWorkers)
					if js != baseJS {
						t.Errorf("%s: RunResult diverged from serial\nserial:   %s\nparallel: %s", label, baseJS, js)
					}
					if tr != baseTr {
						t.Errorf("%s: trace diverged from serial", label)
					}
					if ck != baseCk {
						t.Errorf("%s: encoded checkpoints diverged from serial", label)
					}
				}
			}
		})
	}
}

// TestSnapshotMidPipelineRestoreContinue: snapshot a machine mid-run
// while the pipelined engine is active, restore it into a fresh machine
// with different worker counts, continue both to the same horizon, and
// require byte-identical results — also against an uninterrupted serial
// run. This pins the flush discipline: a snapshot taken between
// pipelined steps must capture exactly the serial machine state.
func TestSnapshotMidPipelineRestoreContinue(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
	quota := gpu.UniformQuota(cfg.NumSMs, []int{2, 2})
	const split, total = 2500, 6000

	run := func(workers, partWorkers int, cycles int64, from *gpu.Snapshot) (*gpu.GPU, string) {
		t.Helper()
		o := &gpu.Options{Quota: quota, Workers: workers, PartWorkers: partWorkers}
		g, err := gpu.New(cfg, descs, o)
		if err != nil {
			t.Fatal(err)
		}
		if from != nil {
			if err := g.Restore(from); err != nil {
				t.Fatal(err)
			}
		}
		o.Cycles = cycles
		if err := g.RunCycles(o); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(g.Result())
		if err != nil {
			t.Fatal(err)
		}
		return g, string(js)
	}

	// Uninterrupted serial reference.
	gRef, want := run(1, 1, total, nil)
	gRef.Close()

	// Pipelined run to the split point, snapshot, continue.
	oA := &gpu.Options{Cycles: split, Quota: quota, Workers: 2, PartWorkers: 2}
	gA, err := gpu.New(cfg, descs, oA)
	if err != nil {
		t.Fatal(err)
	}
	defer gA.Close()
	if err := gA.RunCycles(oA); err != nil {
		t.Fatal(err)
	}
	sn, err := gA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	oA.Cycles = total - split
	if err := gA.RunCycles(oA); err != nil {
		t.Fatal(err)
	}
	jsA, err := json.Marshal(gA.Result())
	if err != nil {
		t.Fatal(err)
	}
	if string(jsA) != want {
		t.Errorf("pipelined snapshot+continue diverged from serial\nserial:  %s\nresumed: %s", want, jsA)
	}

	// Restore the mid-pipeline snapshot into a machine with different
	// worker counts and continue to the same horizon.
	gB, got := run(8, 1, total-split, sn)
	defer gB.Close()
	if got != want {
		t.Errorf("restored continuation diverged from serial\nserial:   %s\nrestored: %s", want, got)
	}
}

// TestSharedPolicyClampsWorkers: a limiter instance shared across SMs
// (the paper's global DMIL variant) would race if SMs ticked
// concurrently, so the engine must detect instance sharing and fall
// back to serial ticking. Partition workers are unaffected: policies
// live on the SM side only.
func TestSharedPolicyClampsWorkers(t *testing.T) {
	cfg := tinyCfg()
	d := getKernel(t, "sv")
	shared := core.NewGlobalDMIL(1)
	g, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 100,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{4}),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter { return shared },
		},
		Workers:     8,
		PartWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Workers() != 1 {
		t.Fatalf("Workers() = %d with a shared limiter, want 1", g.Workers())
	}
	if g.PartWorkers() < 1 {
		t.Fatalf("PartWorkers() = %d, want >= 1", g.PartWorkers())
	}

	// Per-SM instances must keep the requested parallelism.
	g2, err := gpu.New(cfg, []*kern.Desc{d}, &gpu.Options{
		Cycles: 100,
		Quota:  gpu.UniformQuota(cfg.NumSMs, []int{4}),
		Policies: gpu.PolicyFactory{
			Limiter: func(smID, n int) sm.Limiter { return core.NewDMIL(1) },
		},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.Workers() != 2 {
		t.Fatalf("Workers() = %d with per-SM limiters, want 2", g2.Workers())
	}
}
