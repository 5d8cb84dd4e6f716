package gcke

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sm"
	"repro/internal/trace"
)

// TestResultWithoutSeriesMarshalsAsBefore pins the bytes of results run
// without Series to those recorded before Series carried the in-flight
// and limit samples: the new fields add nothing to such a result. The
// pin is in today's result format, without the deleted SmemInstrs,
// Warmup, SMKEpoch and UCPInterval fields.
func TestResultWithoutSeriesMarshalsAsBefore(t *testing.T) {
	s := NewSession(ScaledConfig(1), 6_000)
	s.ProfileCycles = 4_000
	bp, _ := Benchmark("bp")
	ks, _ := Benchmark("ks")
	h := sha256.New()
	for _, sc := range []Scheme{
		{Partition: PartitionEven, Limiting: LimitDMIL},
		{Partition: PartitionWarpedSlicer, MemIssue: MemIssueQBMI},
		{Partition: PartitionSMK, SMKQuota: true},
	} {
		res, err := s.RunWorkload([]Kernel{bp, ks}, sc)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	const want = "d3533b85b7106e2f57fc45a537d053f06a487554e9ef7de1fd5e6bdceabdb749"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("marshalled results hash to %s, want %s", got, want)
	}
}

// TestSessionTraceMatchesHandBuiltRun: Session.Trace records an
// evaluation run's events and nothing of its profiles — the same stream
// as the reference, one machine built by hand under the even partition
// with a trace buffer.
func TestSessionTraceMatchesHandBuiltRun(t *testing.T) {
	const cycles = 8_000
	cfg := ScaledConfig(1)
	bp, _ := Benchmark("bp")
	ks, _ := Benchmark("ks")
	wl := []Kernel{bp, ks}

	s := NewSession(cfg, cycles)
	s.ProfileCycles = 4_000
	s.Trace = trace.New(1 << 16)
	res, err := s.RunWorkload(wl, Scheme{Partition: PartitionEven})
	if err != nil {
		t.Fatal(err)
	}

	descs := toPtrs(wl)
	buf := trace.New(1 << 16)
	hand, err := gpu.Run(cfg, descs, &gpu.Options{
		Cycles: cycles,
		Quota:  gpu.UniformQuota(cfg.NumSMs, core.EvenQuota(&cfg, descs)),
		Trace:  buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace.Total() == 0 || s.Trace.Total() != buf.Total() {
		t.Fatalf("session recorded %d events, the hand-built run %d", s.Trace.Total(), buf.Total())
	}
	if got, want := trace.Render(s.Trace.Snapshot()), trace.Render(buf.Snapshot()); got != want {
		t.Fatal("session trace differs from the hand-built run's")
	}
	if !reflect.DeepEqual(res.RunResult, hand) {
		t.Fatal("traced session result differs from the hand-built run's")
	}
}

// TestSeriesSamplesInflightAndLimit: at 1 SM, the in-flight and limit
// series of a Series run equal what the reference, a Periodic(0, 1024)
// observer, reads from SM 0 of a machine built by hand with a DMIL;
// without DMIL the limit series is nil.
func TestSeriesSamplesInflightAndLimit(t *testing.T) {
	const cycles = 10_000
	cfg := ScaledConfig(1)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	descs := toPtrs(wl)
	s := NewSession(cfg, cycles)
	s.ProfileCycles = 4_000

	for _, limiting := range []LimitKind{LimitDMIL, LimitNone} {
		res, err := s.RunWorkload(wl, Scheme{Partition: PartitionEven, Limiting: limiting, Series: true})
		if err != nil {
			t.Fatal(err)
		}
		var dmil *core.DMIL
		opts := &gpu.Options{
			Cycles: cycles,
			Quota:  gpu.UniformQuota(cfg.NumSMs, core.EvenQuota(&cfg, descs)),
			Series: true,
		}
		if limiting == LimitDMIL {
			opts.Policies.Limiter = func(smID, n int) sm.Limiter {
				dmil = core.NewDMIL(n)
				return dmil
			}
		}
		inflight := make([][]uint32, len(wl))
		limit := make([][]uint32, len(wl))
		opts.Observers = []gpu.Observer{gpu.Periodic(0, 1024, func(g *gpu.GPU) error {
			for k := range wl {
				inflight[k] = append(inflight[k], uint32(g.SMs[0].Inflight(k)))
				if dmil != nil {
					limit[k] = append(limit[k], uint32(dmil.Limit(k)))
				}
			}
			return nil
		})}
		if _, err := gpu.Run(cfg, descs, opts); err != nil {
			t.Fatal(err)
		}
		for k, kr := range res.Kernels {
			if len(kr.Series.Inflight) != cycles/1024 {
				t.Fatalf("%s %s: %d in-flight samples, want %d", limiting, kr.Name, len(kr.Series.Inflight), cycles/1024)
			}
			if !reflect.DeepEqual(kr.Series.Inflight, inflight[k]) {
				t.Errorf("%s %s: in-flight %v, hand-built %v", limiting, kr.Name, kr.Series.Inflight, inflight[k])
			}
			if !reflect.DeepEqual(kr.Series.Limit, limit[k]) {
				t.Errorf("%s %s: limit %v, hand-built %v", limiting, kr.Name, kr.Series.Limit, limit[k])
			}
		}
	}
}

// TestManualPartitionThatCannotRunIsRejected: a manual row above a
// kernel's occupancy limit, or one that does not fit one SM, fails
// before any simulation, profiles included.
func TestManualPartitionThatCannotRunIsRejected(t *testing.T) {
	s := testSession(t)
	calls := 0
	s.onProfile = func(ctx context.Context, kernel string, tbs int) { calls++ }
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	cfg := s.Config()
	full := []int{bp.MaxTBsPerSM(&cfg), sv.MaxTBsPerSM(&cfg)}
	if core.Fits(&cfg, toPtrs(wl), full) {
		t.Fatalf("%v fits one SM; the test needs a row that does not", full)
	}
	for _, row := range [][]int{{1000, 2}, {2, full[1] + 1}, full} {
		if _, _, err := s.Partition(wl, PartitionManual, row); err == nil {
			t.Errorf("Partition accepted manual row %v", row)
		}
		if _, err := s.RunWorkload(wl, Scheme{Partition: PartitionManual, ManualTBs: row}); err == nil {
			t.Errorf("RunWorkload accepted manual row %v", row)
		}
	}
	if calls != 0 {
		t.Fatalf("%d profile simulations ran before the rejection", calls)
	}
	if _, _, err := s.Partition(wl, PartitionManual, []int{2, 2}); err != nil {
		t.Fatalf("Partition rejected manual row [2 2]: %v", err)
	}
}
