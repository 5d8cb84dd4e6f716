package ckpt_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/sm"
)

// machine builds the 2-SM bp+ks machine under a static limiter, so its
// checkpoint snapshot carries policy blobs.
func machine(t testing.TB, cycles int64) (*gpu.GPU, *gpu.Options) {
	t.Helper()
	cfg := config.Scaled(2)
	var descs []*kern.Desc
	var quota []int
	for _, name := range []string{"bp", "ks"} {
		d, err := kern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		descs = append(descs, &d)
		quota = append(quota, d.MaxTBsPerSM(&cfg)/2)
	}
	o := &gpu.Options{
		Cycles:   cycles,
		Quota:    gpu.UniformQuota(cfg.NumSMs, quota),
		Policies: gpu.PolicyFactory{Limiter: func(smID, n int) sm.Limiter { return core.NewSMIL([]int{4, 4}) }},
	}
	g, err := gpu.New(cfg, descs, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g, o
}

func runFor(t testing.TB, g *gpu.GPU, o *gpu.Options, cycles int64) {
	t.Helper()
	leg := *o
	leg.Cycles = cycles
	if err := g.RunCycles(&leg); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshalNeverPanics feeds the decoder — reflection and unsafe
// over bytes from disk and from other workers — mutations of two valid
// streams: the codec tests' graph and a real machine snapshot. Whatever
// the bytes, Unmarshal returns instead of panicking (a panic escaping
// its recover fails the fuzz by itself) and allocates no more than a
// small multiple of the input: its length-versus-remaining-bytes guards
// are what keep a forged length from becoming a forged allocation. A
// stream that does decode holds a value whose own encoding is stable:
// the unchanged decoder also accepts non-canonical streams (a bool byte
// of 2, padded varints, wide integers for narrow fields), so the input
// need not re-encode to itself, but what it decoded to must.
func FuzzUnmarshalNeverPanics(f *testing.F) {
	g, o := machine(f, 3_000)
	runFor(f, g, o, 3_000)
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	realBlob, err := gpu.EncodeSnapshot(sn)
	if err != nil {
		f.Fatal(err)
	}
	graphBlob, err := ckpt.Marshal(ckpt.BuildGraph())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		real bool
		blob []byte
	}{{false, graphBlob}, {true, realBlob}} {
		f.Add(seed.real, seed.blob)
		for _, n := range []int{0, 1, 2, len(seed.blob) / 3, len(seed.blob) - 1} {
			f.Add(seed.real, seed.blob[:n])
		}
		for _, i := range []int{0, 1, 9, len(seed.blob) / 2, len(seed.blob) - 1} {
			mut := append([]byte(nil), seed.blob...)
			mut[i] ^= 0xff
			f.Add(seed.real, mut)
		}
	}

	f.Fuzz(func(t *testing.T, real bool, data []byte) {
		target := func() any {
			if real {
				return new(gpu.Snapshot)
			}
			return new(ckpt.Graph)
		}
		v := target()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ckpt.Unmarshal(data, v)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, allocFactor*uint64(len(data))+allocSlack; got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		canon, err := ckpt.Marshal(v)
		if err != nil {
			t.Fatalf("decoded value does not encode: %v", err)
		}
		v2 := target()
		if err := ckpt.Unmarshal(canon, v2); err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		again, err := ckpt.Marshal(v2)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("encoding is not stable across a round trip (err %v)", err)
		}
	})
}

// The decoder's allocation budget: allocFactor bytes per input byte (a
// one-byte nil tag can stand for a 24-byte slice header, and reflect
// keeps a Value per materialized pointer) plus allocSlack for the fuzz
// worker's own concurrent allocations.
const (
	allocFactor = 64
	allocSlack  = 1 << 20
)

// BenchmarkEncodeSnapshot times the encoder on a real machine snapshot.
func BenchmarkEncodeSnapshot(b *testing.B) {
	g, o := machine(b, 3_000)
	runFor(b, g, o, 3_000)
	sn, err := g.SnapshotCheckpoint()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		blob, err := gpu.EncodeSnapshot(sn)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}
