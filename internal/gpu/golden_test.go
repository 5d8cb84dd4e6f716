package gpu_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

// TestEncodeSnapshotGolden pins the checkpoint wire format end to end:
// the sha256 of EncodeSnapshot for one fixed run, taken on a cycle where
// every component of the snapshot graph holds in-flight requests and
// with a stateful policy installed so the policy blobs are present.
// Checkpoints cross process (and, in a fleet, binary) boundaries, so an
// encoder change that moves one byte must be a deliberate format change,
// not a side effect.
func TestEncodeSnapshotGolden(t *testing.T) {
	const (
		cycle  = 5335
		golden = "d3c61f3754ade385bb5cd8e6ba2b9b8e16e9184d000e0ff2b320eb7ac65a9fb4"
		size   = 141436
	)
	cfg := tinyCfg()
	descs := []*kern.Desc{getKernel(t, "bp"), getKernel(t, "ks")}
	o := snapshotOpts(&cfg, descs, cycle, 1, false)
	o.Policies = gpu.PolicyFactory{Limiter: func(smID, n int) sm.Limiter { return core.NewSMIL([]int{4, 4}) }}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.RunCycles(o); err != nil {
		t.Fatal(err)
	}
	// The partition input queues are empty at every cycle boundary of a run
	// this small; every other holder of requests must be populated.
	if f := gpu.InFlightOf(g); f.SM == 0 || f.L2 == 0 || f.DRAM == 0 || f.PartResp == 0 ||
		f.ReqNet == 0 || f.RespNet == 0 {
		t.Fatalf("cycle %d leaves a component empty (%+v); the golden must cover every part of the graph", cycle, f)
	}
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := gpu.EncodeSnapshot(sn)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != golden || len(blob) != size {
		t.Fatalf("EncodeSnapshot = %d bytes, sha256 %s; want %d bytes, sha256 %s", len(blob), got, size, golden)
	}
}
