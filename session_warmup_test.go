package gcke

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sm"
)

// TestWarmupIsTwoLegs pins what Scheme.Warmup means: an unmanaged leg of
// Warmup cycles on a machine built without the scheme's mechanisms, then
// InstallPolicies and a managed leg for the rest of the run, on one
// machine. RunWorkload must equal that sequence driven by hand through
// gpu, byte for byte in JSON, and a second run of the same scheme on the
// same session must equal the first. The in-flight and DMIL limit series
// are sampled by hand too, from the managed leg's first multiple of 1024
// on.
func TestWarmupIsTwoLegs(t *testing.T) {
	const warmup = 6_000
	schemes := []Scheme{
		{Partition: PartitionEven, Warmup: warmup, Series: true},
		{Partition: PartitionEven, Limiting: LimitDMIL, Warmup: warmup, Series: true},
		{Partition: PartitionEven, MemIssue: MemIssueQBMI, UCP: true, Warmup: warmup, Series: true},
	}
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	s := testSession(t)
	cfg := s.Config()
	descs := toPtrs(wl)

	isolated := make([]float64, len(wl))
	for i := range wl {
		r, err := s.RunIsolated(wl[i])
		if err != nil {
			t.Fatal(err)
		}
		isolated[i] = r.Kernels[0].IPC
	}
	row := core.EvenQuota(&cfg, descs)
	quota := gpu.UniformQuota(cfg.NumSMs, row)

	byHand := func(sc Scheme) *WorkloadResult {
		t.Helper()
		warm := gpu.Options{Cycles: s.Cycles(), Quota: quota, Series: sc.Series}
		g, err := gpu.New(cfg, descs, &warm)
		if err != nil {
			t.Fatal(err)
		}
		warmLeg := warm
		warmLeg.Cycles = sc.Warmup
		if err := g.RunCycles(&warmLeg); err != nil {
			t.Fatal(err)
		}
		managed := gpu.Options{Cycles: s.Cycles(), Quota: quota, Series: sc.Series}
		var dmils []*core.DMIL
		if sc.Limiting == LimitDMIL {
			dmils = make([]*core.DMIL, cfg.NumSMs)
			managed.Policies.Limiter = func(smID, n int) sm.Limiter {
				dmils[smID] = core.NewDMIL(n)
				return dmils[smID]
			}
		}
		if sc.MemIssue == MemIssueQBMI {
			rpm := []int{bp.ReqPerMinst, sv.ReqPerMinst}
			managed.Policies.MemPolicy = func(smID, n int) sm.MemIssuePolicy { return core.NewQBMI(n, rpm) }
		}
		managed.UCP = sc.UCP
		g.InstallPolicies(&managed)
		mainLeg := managed
		mainLeg.Cycles = s.Cycles() - sc.Warmup
		if sc.UCP {
			// UCP's default period, restarted by the managed leg.
			mainLeg.Observers = []gpu.Observer{gpu.Repartition(sc.Warmup, 50*1024)}
		}
		inflight := make([][]uint32, len(wl))
		limit := make([][]uint32, len(wl))
		mainLeg.Observers = append(mainLeg.Observers, gpu.Periodic(sc.Warmup, 1024, func(g *gpu.GPU) error {
			for k := range wl {
				var inf, lim uint32
				for i := range g.SMs {
					inf += uint32(g.SMs[i].Inflight(k))
					if dmils != nil {
						lim += uint32(dmils[i].Limit(k))
					}
				}
				inflight[k] = append(inflight[k], inf)
				if dmils != nil {
					limit[k] = append(limit[k], lim)
				}
			}
			return nil
		}))
		if err := g.RunCycles(&mainLeg); err != nil {
			t.Fatal(err)
		}
		res := g.Result()
		g.Close()
		for k := range res.Kernels {
			res.Kernels[k].Series.Inflight, res.Kernels[k].Series.Limit = inflight[k], limit[k]
		}
		return &WorkloadResult{RunResult: res, Scheme: sc, TBPartition: row, IsolatedIPC: isolated}
	}
	marshal := func(r *WorkloadResult) string {
		t.Helper()
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}

	for _, sc := range schemes {
		want := marshal(byHand(sc))
		for run := 1; run <= 2; run++ {
			got, err := s.RunWorkload(wl, sc)
			if err != nil {
				t.Fatalf("%s run %d: %v", sc.Name(), run, err)
			}
			if js := marshal(got); js != want {
				t.Fatalf("%s run %d: RunWorkload diverged from the two legs driven by hand\nhand:    %s\nsession: %s", sc.Name(), run, want, js)
			}
		}
	}
}

// TestWarmupValidation: nonsensical warmup lengths must be rejected
// before any simulation happens.
func TestWarmupValidation(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	if _, err := s.RunWorkload(wl, Scheme{Partition: PartitionEven, Warmup: -1}); err == nil {
		t.Fatal("negative Warmup accepted")
	}
	if _, err := s.RunWorkload(wl, Scheme{Partition: PartitionEven, Warmup: s.cycles}); err == nil {
		t.Fatal("Warmup == run length accepted")
	}
}
