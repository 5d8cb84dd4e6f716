package gpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
	"repro/internal/trace"
)

// parallelWorkload is one determinism scenario: a kernel mix plus the
// option toggles that exercise different engine paths, and the sha256 of
// what the run must produce.
type parallelWorkload struct {
	name    string
	kernels []string
	cycles  int64
	full    bool // Trace + Series + Check on
	ckpt    bool // Trace + periodic encoded checkpoints, digest-compared

	// Goldens, recorded at the last commit that still had the fan-out
	// engine (PR 18, c345e0a), where the serial run and all eight
	// (Workers, PartWorkers) combinations of {1,2,8}² beyond (1,1) were
	// asserted equal to them: the RunResult JSON, the rendered trace and
	// the concatenated encoded checkpoints (the last two hash the empty
	// string when the workload has no trace or takes no checkpoint).
	// The result and checkpoint goldens have moved since only where a
	// deleted field left the result JSON or the snapshot graph (the
	// shared-memory instruction's counter and busy time, the unread
	// machine fields, the SM's second counts of issued instructions, L1D
	// accesses and reservation failures with its series buckets, the
	// machine-wide series sampler's pointer taking their place); the
	// traces are the recorded ones.
	goldResult, goldTrace, goldCkpt string
}

// engineRun is what one run of a workload leaves behind.
type engineRun struct {
	result, trace, ckpt string // sha256, hex
	maxGoroutines       int    // highest runtime.NumGoroutine() seen during the run
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runWorkload executes the workload with the deprecated Workers and
// PartWorkers fields set as given and returns the digests of the
// marshalled RunResult, the rendered trace and every encoded mid-run
// checkpoint, with the goroutine count sampled at every interrupt poll.
func runWorkload(t *testing.T, w parallelWorkload, workers, partWorkers int) engineRun {
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
	var run engineRun
	o := &gpu.Options{
		Cycles:      w.cycles,
		Quota:       gpu.UniformQuota(cfg.NumSMs, quota),
		Workers:     workers,
		PartWorkers: partWorkers,
	}
	if w.full {
		o.Trace = trace.New(1 << 12)
		o.Series = true
		o.Observers = append(o.Observers, gpu.Watchdog(0, gpu.DefaultProgressWindow))
	}
	ckptHash := sha256.New()
	asleepAtCkpt := 0
	if w.ckpt {
		o.Trace = trace.New(1 << 12)
		o.Observers = append(o.Observers, gpu.Periodic(0, w.cycles/3, func(g *gpu.GPU) error {
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
		}))
	}
	o.Observers = append(o.Observers, gpu.Interrupt(0, w.cycles, func() bool {
		run.maxGoroutines = max(run.maxGoroutines, runtime.NumGoroutine())
		return false
	}))
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
	run.result, run.trace = sha(js), sha([]byte(tr))
	run.ckpt = hex.EncodeToString(ckptHash.Sum(nil))
	return run
}

// shaEmpty is the sha256 of no bytes: a workload without a trace, or one
// that takes no checkpoint.
const shaEmpty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

var parallelWorkloads = []parallelWorkload{
	{name: "1kernel", kernels: []string{"bp"}, cycles: 6000,
		goldResult: "cd11a03f9d828416976432a5df4b93850a7cf2e16e90634a8db2cdc45fab25ea",
		goldTrace:  shaEmpty,
		goldCkpt:   shaEmpty},
	{name: "2kernelCKE", kernels: []string{"bp", "sv"}, cycles: 6000,
		goldResult: "2863882e68c16501524b2166b4fb649893f79b584f83452a1979ac217ab498f2",
		goldTrace:  shaEmpty,
		goldCkpt:   shaEmpty},
	{name: "2kernelCKE-full", kernels: []string{"sv", "cd"}, cycles: 6000, full: true,
		goldResult: "6d5864dc97f9529ce0355827d977dbe897809f5adc74a347ec846d3848fe8b23",
		goldTrace:  "8f635f6b6513b307095569873e58b9e14ad6facbcefad1cdde2018bfa4247bb6",
		goldCkpt:   shaEmpty},
	{name: "2kernelCKE-trace-ckpt", kernels: []string{"bp", "cd"}, cycles: 6000, ckpt: true,
		goldResult: "8ef593b85ab54467956c550a5ed93fa4d5fa2b88a55b131fb9a6c2d531ad2e41",
		goldTrace:  "151a244159a6605f16f90561d7fe8eaad49c3300281f96a1dc6445f2a716ee7d",
		goldCkpt:   "b5e47c2302b66e65ed425fdbd08369be1ce56e487d8ccdf31d4901b15ca2a194"},
}

func (w *parallelWorkload) check(t *testing.T, label string, got engineRun) {
	t.Helper()
	if got.result != w.goldResult {
		t.Errorf("%s: RunResult sha256 %s, golden %s", label, got.result, w.goldResult)
	}
	if got.trace != w.goldTrace {
		t.Errorf("%s: rendered trace sha256 %s, golden %s", label, got.trace, w.goldTrace)
	}
	if got.ckpt != w.goldCkpt {
		t.Errorf("%s: encoded checkpoints sha256 %s, golden %s", label, got.ckpt, w.goldCkpt)
	}
}

// TestParallelStepMatchesSerial holds the one cycle engine to the bytes
// the fan-out matrix agreed on before it was deleted: every workload's
// result, trace and checkpoints hash to the goldens above. The second
// leg sets the deprecated worker fields to 8/8, as bench's fan-out legs
// still do: it must produce the same bytes and start no goroutine.
func TestParallelStepMatchesSerial(t *testing.T) {
	for _, w := range parallelWorkloads {
		t.Run(w.name, func(t *testing.T) {
			w.check(t, "fields unset", runWorkload(t, w, 0, 0))
			before := runtime.NumGoroutine()
			set := runWorkload(t, w, 8, 8)
			w.check(t, "Workers=8 PartWorkers=8", set)
			if set.maxGoroutines > before {
				t.Errorf("Workers=8 PartWorkers=8: %d goroutines during the run, %d before it: the fields must be inert",
					set.maxGoroutines, before)
			}
		})
	}
}

// TestSnapshotMidPipelineRestoreContinue: snapshot a machine mid-run,
// restore it into a fresh machine, continue both to the same horizon,
// and require byte-identical results — also against an uninterrupted
// run. A snapshot taken between steps must capture the whole machine
// state: the crossbars hold packets granted but not yet poppable. The
// snapshotted and the restored machine set the deprecated worker fields
// (differently), the reference leaves them unset.
func TestSnapshotMidPipelineRestoreContinue(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
	quota := gpu.UniformQuota(cfg.NumSMs, []int{2, 2})
	const split, total = 2500, 6000

	run := func(workers, partWorkers int, cycles int64, from *gpu.Snapshot) string {
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
		return marshalResult(t, g)
	}

	// Uninterrupted reference.
	want := run(0, 0, total, nil)

	// Run to the split point, snapshot, continue.
	oA := &gpu.Options{Cycles: split, Quota: quota, Workers: 2, PartWorkers: 2}
	gA, err := gpu.New(cfg, descs, oA)
	if err != nil {
		t.Fatal(err)
	}
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
	if jsA := marshalResult(t, gA); jsA != want {
		t.Errorf("snapshot+continue diverged from uninterrupted\nwant:    %s\nresumed: %s", want, jsA)
	}

	// Restore the mid-run snapshot into a fresh machine and continue to
	// the same horizon.
	if got := run(8, 1, total-split, sn); got != want {
		t.Errorf("restored continuation diverged from uninterrupted\nwant:     %s\nrestored: %s", want, got)
	}
}

// TestSharedPolicyClampsWorkers: a limiter instance shared across SMs
// (the paper's global DMIL variant) is ticked by every SM of the cycle
// in SM-index order. With one engine nothing fans out, so nothing can
// race on it and there is nothing left to clamp: the deprecated worker
// fields set or unset, the run is the same bytes. CI runs this under
// -race.
func TestSharedPolicyClampsWorkers(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "sv"), getKernel(t, "bp")}
	run := func(workers, partWorkers int) (string, string) {
		t.Helper()
		shared := core.NewGlobalDMIL(len(descs))
		o := &gpu.Options{
			Cycles: 4000,
			Quota:  gpu.UniformQuota(cfg.NumSMs, []int{2, 2}),
			Policies: gpu.PolicyFactory{
				Limiter: func(smID, n int) sm.Limiter { return shared },
			},
			Trace:       trace.New(1 << 12),
			Workers:     workers,
			PartWorkers: partWorkers,
		}
		res, err := gpu.Run(cfg, descs, o)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(js), trace.Render(o.Trace.Snapshot())
	}
	wantJS, wantTr := run(0, 0)
	js, tr := run(8, 8)
	if js != wantJS {
		t.Errorf("shared limiter, Workers=8 PartWorkers=8: RunResult diverged\nunset: %s\nset:   %s", wantJS, js)
	}
	if tr != wantTr {
		t.Errorf("shared limiter, Workers=8 PartWorkers=8: trace diverged")
	}
}
