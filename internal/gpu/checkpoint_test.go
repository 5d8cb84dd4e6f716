package gpu_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

// TestCheckpointRestoreContinueMatchesUninterrupted is the checkpoint
// layer's core contract and the piece a plain Snapshot cannot do:
// with STATEFUL policies installed (the sweep grid's SMIL, the dynamic
// DMIL, a cross-SM shared GlobalDMIL), run-to-N → SnapshotCheckpoint →
// encode to bytes → decode → restore into a freshly built machine with
// the same factories → continue must be byte-identical to an
// uninterrupted run. This is exactly the crash-resume path: the bytes
// are what the ckpt store persists and a different process reloads.
func TestCheckpointRestoreContinueMatchesUninterrupted(t *testing.T) {
	const warm, cont = 4000, 4000
	// Each machine build gets FRESH policy instances (factories returns a
	// new factory set per call) — sharing one GlobalDMIL between the
	// reference and the checkpointed machine would leak state across runs.
	for _, tc := range []struct {
		name      string
		factories func() gpu.PolicyFactory
	}{
		{name: "static", factories: func() gpu.PolicyFactory {
			return gpu.PolicyFactory{Limiter: func(smID, n int) sm.Limiter { return core.NewSMIL([]int{3, 3}) }}
		}},
		{name: "dmil", factories: func() gpu.PolicyFactory {
			return gpu.PolicyFactory{Limiter: func(smID, n int) sm.Limiter { return core.NewDMIL(n) }}
		}},
		{name: "qbmi", factories: func() gpu.PolicyFactory {
			return gpu.PolicyFactory{MemPolicy: func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, nil) }}
		}},
		{name: "shared-global-dmil", factories: func() gpu.PolicyFactory {
			g := core.NewGlobalDMIL(2)
			return gpu.PolicyFactory{Limiter: func(smID, n int) sm.Limiter { return g }}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg()
			descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
			mkOpts := func() *gpu.Options {
				o := snapshotOpts(&cfg, descs, warm+cont, 1, false)
				o.Policies = tc.factories()
				return o
			}

			// Reference: one uninterrupted managed run.
			oA := mkOpts()
			gA, err := gpu.New(cfg, descs, oA)
			if err != nil {
				t.Fatal(err)
			}
			if err := gA.RunCycles(oA); err != nil {
				t.Fatal(err)
			}
			refJS := marshalResult(t, gA)

			// Checkpointed run: warm leg, checkpoint through the byte
			// codec, continue on the original machine.
			oB := mkOpts()
			gB, err := gpu.New(cfg, descs, oB)
			if err != nil {
				t.Fatal(err)
			}
			legWarm := *oB
			legWarm.Cycles = warm
			if err := gB.RunCycles(&legWarm); err != nil {
				t.Fatal(err)
			}
			sn, err := gB.SnapshotCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := gpu.EncodeSnapshot(sn)
			if err != nil {
				t.Fatal(err)
			}
			legCont := *oB
			legCont.Cycles = cont
			if err := gB.RunCycles(&legCont); err != nil {
				t.Fatal(err)
			}
			if js := marshalResult(t, gB); js != refJS {
				t.Fatalf("checkpointed run diverged from uninterrupted run\nref: %s\ngot: %s", refJS, js)
			}

			// Resumed run: a fresh machine (fresh policy instances from
			// the same factories) fed the decoded checkpoint.
			dec, err := gpu.DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Cycle() != warm {
				t.Fatalf("decoded checkpoint cycle = %d, want %d", dec.Cycle(), warm)
			}
			oC := mkOpts()
			gC, err := gpu.New(cfg, descs, oC)
			if err != nil {
				t.Fatal(err)
			}
			if err := gC.RestoreCheckpoint(dec); err != nil {
				t.Fatal(err)
			}
			legC := *oC
			legC.Cycles = cont
			if err := gC.RunCycles(&legC); err != nil {
				t.Fatal(err)
			}
			if js := marshalResult(t, gC); js != refJS {
				t.Fatalf("resumed run diverged from uninterrupted run\nref: %s\ngot: %s", refJS, js)
			}
		})
	}
}

// TestCheckpointSinkFires: a Checkpoints observer calls its sink at
// every multiple of its period, and a sink error turns it off without
// failing the run.
func TestCheckpointSinkFires(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp")}
	var fired []int64
	o := snapshotOpts(&cfg, descs, 5000, 1, false)
	o.Observers = []gpu.Observer{gpu.Checkpoints(0, 1000, func(g *gpu.GPU) error {
		fired = append(fired, g.Cycle())
		return nil
	})}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	if want := []int64{1000, 2000, 3000, 4000, 5000}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("sink fired at %v, want %v", fired, want)
	}

	// A failing sink disables checkpointing, not the run.
	fails := 0
	o2 := snapshotOpts(&cfg, descs, 5000, 1, false)
	o2.Observers = []gpu.Observer{gpu.Checkpoints(0, 1000, func(g *gpu.GPU) error {
		fails++
		return errSink
	})}
	g2, err := gpu.New(cfg, descs, o2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RunCycles(o2); err != nil {
		t.Fatal(err)
	}
	if fails != 1 {
		t.Fatalf("failing sink called %d times, want 1 (then disabled)", fails)
	}
	if got := g2.Result().Cycles; got != 5000 {
		t.Fatalf("run stopped at %d cycles after sink failure, want 5000", got)
	}
}

// TestRestoreCheckpointShapeMismatch: a checkpoint taken under one
// policy scheme must not restore into a machine managed by another, and
// a plain Snapshot (no policy state) must not restore as a
// checkpoint.
func TestRestoreCheckpointShapeMismatch(t *testing.T) {
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "sv")}
	o := snapshotOpts(&cfg, descs, 2000, 1, false)
	o.Policies = gpu.PolicyFactory{
		Limiter: func(smID, n int) sm.Limiter { return core.NewDMIL(n) },
	}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Unmanaged machine: stateful blob has no instance to land in.
	oU := snapshotOpts(&cfg, descs, 2000, 1, false)
	gU, err := gpu.New(cfg, descs, oU)
	if err != nil {
		t.Fatal(err)
	}
	if err := gU.RestoreCheckpoint(sn); err == nil {
		t.Fatal("checkpoint with policy state restored into an unmanaged machine")
	}

	// Plain Snapshot into RestoreCheckpoint: refused.
	plainSn, err := gU.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := gU.RestoreCheckpoint(plainSn); err == nil {
		t.Fatal("plain Snapshot accepted by RestoreCheckpoint")
	}
}

var errSink = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "sink unavailable" }
