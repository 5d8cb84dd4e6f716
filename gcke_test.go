package gcke

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func testSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(ScaledConfig(2), 20_000)
	s.ProfileCycles = 15_000
	return s
}

func TestBenchmarkLookup(t *testing.T) {
	for _, name := range BenchmarkNames() {
		if _, err := Benchmark(name); err != nil {
			t.Errorf("Benchmark(%q): %v", name, err)
		}
	}
	if _, err := Benchmark("zz"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(Benchmarks()) != 13 {
		t.Errorf("Benchmarks() returned %d kernels, want 13", len(Benchmarks()))
	}
}

func TestSessionIsolatedCached(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	r1, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("isolated results must be cached (same pointer)")
	}
	if r1.Kernels[0].IPC <= 0 {
		t.Fatal("isolated run made no progress")
	}
}

func TestSessionCurveShape(t *testing.T) {
	s := testSession(t)
	var sims atomic.Int32 // Curve profiles on the idle cores too
	s.onProfile = func(ctx context.Context, kernel string, tbs int) { sims.Add(1) }
	bp, _ := Benchmark("bp")
	curve, err := s.Curve(bp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if len(curve) != bp.MaxTBsPerSM(&cfg) {
		t.Fatalf("curve has %d points, want %d", len(curve), bp.MaxTBsPerSM(&cfg))
	}
	// bp's performance must grow substantially from 1 TB to max TBs
	// (the paper's near-linear scaling in Figure 3a).
	if curve[len(curve)-1] < 2*curve[0] {
		t.Fatalf("bp scalability too flat: %v", curve)
	}

	// Every point the table holds is a whole result: the curve's last
	// point is the isolated run, which starts no further simulation.
	r, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	if n := int(sims.Load()); n != len(curve) {
		t.Fatalf("%d simulations for a %d-point curve and its isolated run, want %d", n, len(curve), len(curve))
	}
	if curve[len(curve)-1] != r.Kernels[0].IPC {
		t.Fatalf("curve's last point %v, RunIsolated IPC %v: want them equal", curve[len(curve)-1], r.Kernels[0].IPC)
	}
}

func TestClassifyMatchesTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("classification needs full isolated runs")
	}
	s := NewSession(ScaledConfig(2), 40_000)
	s.ProfileCycles = 40_000
	for _, name := range BenchmarkNames() {
		d, _ := Benchmark(name)
		got, err := s.Classify(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != d.Class {
			t.Errorf("%s classified %v, Table 2 says %v", name, got, d.Class)
		}
	}
}

func TestRunWorkloadWS(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	res, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{Partition: PartitionWarpedSlicer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TBPartition) != 2 || res.TBPartition[0] < 1 || res.TBPartition[1] < 1 {
		t.Fatalf("bad partition %v", res.TBPartition)
	}
	if res.TheoreticalWS <= 0 {
		t.Fatal("theoretical WS missing")
	}
	ws := res.WeightedSpeedup()
	if ws <= 0 || ws > 2 {
		t.Fatalf("weighted speedup %v out of (0,2]", ws)
	}
	if res.ANTT() < 1 {
		t.Fatalf("ANTT %v < 1 (kernels cannot speed up under sharing)", res.ANTT())
	}
	f := res.Fairness()
	if f < 0 || f > 1 {
		t.Fatalf("fairness %v out of [0,1]", f)
	}
}

func TestRunWorkloadSchemes(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	for _, sc := range []Scheme{
		{Partition: PartitionSpatial},
		{Partition: PartitionSMK, SMKQuota: true},
		{Partition: PartitionSMK, MemIssue: MemIssueQBMI},
		{Partition: PartitionWarpedSlicer, MemIssue: MemIssueRBMI},
		{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL},
		{Partition: PartitionWarpedSlicer, Limiting: LimitGlobalDMIL},
		{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{0, 8}},
		{Partition: PartitionWarpedSlicer, UCP: true},
		{Partition: PartitionLeftover},
		{Partition: PartitionEven},
		{Partition: PartitionManual, ManualTBs: []int{3, 3}},
	} {
		res, err := s.RunWorkload(wl, sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if res.Kernels[0].Instrs == 0 && res.Kernels[1].Instrs == 0 {
			t.Fatalf("%s: no progress at all", sc.Name())
		}
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	if _, err := s.RunWorkload(nil, Scheme{}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := s.RunWorkload([]Kernel{bp}, Scheme{
		Partition: PartitionWarpedSlicer, Limiting: LimitStatic,
	}); err == nil {
		t.Error("LimitStatic without StaticLimits accepted")
	}
	if _, err := s.RunWorkload([]Kernel{bp}, Scheme{
		Partition: PartitionManual, ManualTBs: []int{1, 2},
	}); err == nil {
		t.Error("manual partition with wrong arity accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	cases := []struct {
		s    Scheme
		want string
	}{
		{Scheme{Partition: PartitionWarpedSlicer}, "WS"},
		{Scheme{Partition: PartitionWarpedSlicer, MemIssue: MemIssueQBMI}, "WS-QBMI"},
		{Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL}, "WS-DMIL"},
		{Scheme{Partition: PartitionSMK, SMKQuota: true}, "SMK-(P+W)"},
		{Scheme{Partition: PartitionSMK, MemIssue: MemIssueQBMI}, "SMK-(P+QBMI)"},
		{Scheme{Partition: PartitionSMK, Limiting: LimitDMIL}, "SMK-(P+DMIL)"},
		{Scheme{Partition: PartitionSpatial}, "Spatial"},
		{Scheme{Partition: PartitionWarpedSlicer, UCP: true}, "WS-L1DPart"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestThreeKernelWorkload(t *testing.T) {
	s := testSession(t)
	var wl []Kernel
	for _, n := range []string{"bp", "sv", "dc"} {
		d, _ := Benchmark(n)
		wl = append(wl, d)
	}
	res, err := s.RunWorkload(wl, Scheme{Partition: PartitionSMK, MemIssue: MemIssueQBMI})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SpeedupsOf()) != 3 {
		t.Fatal("want 3 speedups")
	}
	for i, k := range res.Kernels {
		if k.Instrs == 0 {
			t.Fatalf("kernel %d idle", i)
		}
	}
}

// TestInterferenceDirection encodes the paper's central observation: a
// compute kernel loses far more of its isolated performance when paired
// with a memory-intensive kernel than the memory kernel does, and DMIL
// reduces the memory pipeline stall dramatically.
func TestInterferenceDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a longer run")
	}
	s := NewSession(ScaledConfig(2), 100_000)
	s.ProfileCycles = 40_000
	bp, _ := Benchmark("bp")
	ks, _ := Benchmark("ks")
	wl := []Kernel{bp, ks}
	base, err := s.RunWorkload(wl, Scheme{Partition: PartitionWarpedSlicer})
	if err != nil {
		t.Fatal(err)
	}
	if base.LSUStallFrac() < 0.3 {
		t.Fatalf("baseline C+M stall %.2f, expected heavy memory pipeline stalls", base.LSUStallFrac())
	}
	sp := base.SpeedupsOf()
	if sp[0] >= sp[1] {
		t.Fatalf("compute kernel (%.2f) should suffer more than the memory kernel (%.2f)", sp[0], sp[1])
	}
	dmil, err := s.RunWorkload(wl, Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL})
	if err != nil {
		t.Fatal(err)
	}
	if dmil.LSUStallFrac() > base.LSUStallFrac()/2 {
		t.Fatalf("DMIL stall %.2f vs baseline %.2f: expected at least a halving",
			dmil.LSUStallFrac(), base.LSUStallFrac())
	}
	spD := dmil.SpeedupsOf()
	if spD[0] <= sp[0] {
		t.Fatalf("DMIL must recover the compute kernel: %.3f -> %.3f", sp[0], spD[0])
	}
}

func TestSchemeValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Scheme
		n    int
		ok   bool
	}{
		{"plain WS", Scheme{Partition: PartitionWarpedSlicer}, 2, true},
		{"SMK+W", Scheme{Partition: PartitionSMK, SMKQuota: true}, 2, true},
		{"SMK+W with QBMI", Scheme{Partition: PartitionSMK, SMKQuota: true, MemIssue: MemIssueQBMI}, 2, false},
		{"SMK+W with RBMI", Scheme{Partition: PartitionSMK, SMKQuota: true, MemIssue: MemIssueRBMI}, 2, false},
		{"SMK+W with DMIL", Scheme{Partition: PartitionSMK, SMKQuota: true, Limiting: LimitDMIL}, 2, false},
		{"SMK+W with SMIL", Scheme{Partition: PartitionSMK, SMKQuota: true, Limiting: LimitStatic, StaticLimits: []int{4, 4}}, 2, false},
		{"SMIL right arity", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{4, 8}}, 2, true},
		{"SMIL missing limits", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic}, 2, false},
		{"SMIL wrong arity", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{4}}, 2, false},
		{"manual right arity", Scheme{Partition: PartitionManual, ManualTBs: []int{2, 2}}, 2, true},
		{"manual wrong arity", Scheme{Partition: PartitionManual, ManualTBs: []int{2, 2, 2}}, 2, false},
		{"manual zero TBs", Scheme{Partition: PartitionManual, ManualTBs: []int{0, 2}}, 2, false},
		{"manual negative TBs", Scheme{Partition: PartitionManual, ManualTBs: []int{-1, 2}}, 2, false},
		{"SMIL negative cap", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{-1, 4}}, 2, false},
		{"SMIL unlimited", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{core.Unlimited, 4}}, 2, true},
		{"SMIL cap of 1000", Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{1000, 1000}}, 2, true},
		{"bypass right arity", Scheme{Partition: PartitionEven, BypassL1: []bool{false, true}}, 2, true},
		{"bypass wrong arity", Scheme{Partition: PartitionEven, BypassL1: []bool{true}}, 2, false},
		{"TBT on WS", Scheme{Partition: PartitionWarpedSlicer, TBThrottle: true}, 2, true},
		{"TBT on spatial", Scheme{Partition: PartitionSpatial, TBThrottle: true}, 2, false},
		{"TBT on dynWS", Scheme{Partition: PartitionWarpedSlicerDyn, TBThrottle: true}, 2, false},
	}
	for _, c := range cases {
		err := c.s.Validate(c.n)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid scheme accepted", c.name)
		}
	}
}

func TestRunWorkloadRejectsInvalidScheme(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	if _, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{
		Partition: PartitionSMK, SMKQuota: true, Limiting: LimitDMIL,
	}); err == nil {
		t.Fatal("SMKQuota+DMIL accepted by RunWorkload")
	}
}

// TestSessionConcurrentProfiling shares one session across goroutines
// that all demand the same profiles; the in-flight deduplication must
// hand every caller the same cached objects (and -race verifies the
// locking).
func TestSessionConcurrentProfiling(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")

	// ipcAt is kernel d's isolated IPC at tbs TBs per SM.
	ipcAt := func(d Kernel, tbs int) (float64, error) {
		rs, err := s.fetch(context.Background(), []profileKey{{d, tbs}})
		if err != nil {
			return 0, err
		}
		return rs[0].Kernels[0].IPC, nil
	}

	const n = 8
	runs := make([]*RunResult, n)
	ipcs := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.RunIsolated(bp)
			if err != nil {
				t.Errorf("RunIsolated: %v", err)
				return
			}
			runs[i] = r
			d := sv
			if i%2 == 0 {
				d = bp
			}
			v, err := ipcAt(d, 2)
			if err != nil {
				t.Errorf("isolated IPC at 2 TBs per SM: %v", err)
				return
			}
			if i%2 == 0 {
				ipcs[i], _ = ipcAt(bp, 2)
			} else {
				ipcs[i] = v
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if runs[i] != runs[0] {
			t.Fatal("concurrent RunIsolated returned distinct objects for one kernel")
		}
	}
	for i := 2; i < n; i += 2 {
		if ipcs[i] != ipcs[0] {
			t.Fatalf("concurrent isolated IPCs disagree: %v vs %v", ipcs[i], ipcs[0])
		}
	}
}

func TestPartitionKindStrings(t *testing.T) {
	for _, k := range []PartitionKind{PartitionWarpedSlicer, PartitionSMK,
		PartitionSpatial, PartitionLeftover, PartitionEven, PartitionManual} {
		if s := k.String(); s == "" || strings.HasPrefix(s, "PartitionKind(") {
			t.Errorf("missing name for %d", int(k))
		}
	}
}

func TestDynamicWarpedSlicer(t *testing.T) {
	// 4 SMs profile 28 TB configurations in 7 rounds of 16K cycles from
	// the first hook call, at cycle 1024; the partition applies at the
	// end of the last round. A run that ends there never runs at the
	// partition and is refused before any simulation, profiles
	// included; one cycle more runs at it.
	cfg := ScaledConfig(4)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	at := hookEvery + core.NewDynWS(&cfg, toPtrs(wl)).ProfilingCycles()
	if at != 1024+7*16*1024 {
		t.Fatalf("partition cycle %d, want %d", at, 1024+7*16*1024)
	}
	short := NewSession(cfg, at)
	calls := 0
	short.onProfile = func(ctx context.Context, kernel string, tbs int) { calls++ }
	_, err := short.RunWorkload(wl, Scheme{Partition: PartitionWarpedSlicerDyn})
	if err == nil || !strings.Contains(err.Error(), strconv.FormatInt(at, 10)+"-cycle run") ||
		!strings.Contains(err.Error(), strconv.FormatInt(at-hookEvery, 10)+" profiling cycles") {
		t.Fatalf("a run ending at the partition cycle: err %v, want a refusal naming both lengths", err)
	}
	if calls != 0 {
		t.Fatalf("%d profile simulations ran before the refusal", calls)
	}

	s := NewSession(cfg, at+1)
	s.ProfileCycles = 15_000
	res, err := s.RunWorkload(wl, Scheme{Partition: PartitionWarpedSlicerDyn})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TBPartition) != 2 || res.TBPartition[0] < 1 || res.TBPartition[1] < 1 {
		t.Fatalf("dynamic WS partition %v", res.TBPartition)
	}
	if res.TheoreticalWS <= 0 {
		t.Fatalf("dynamic WS theoretical WS %v", res.TheoreticalWS)
	}
	if res.WeightedSpeedup() <= 0 {
		t.Fatal("no progress under dynamic WS")
	}
}

func TestBypassEndToEnd(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	res, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{
		Partition: PartitionEven,
		BypassL1:  []bool{false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[1].L1D.Bypassed == 0 {
		t.Fatal("bypassed kernel recorded no bypasses")
	}
	if res.Kernels[0].L1D.Bypassed != 0 {
		t.Fatal("non-bypassed kernel bypassed")
	}
	// The bypassed kernel must still complete its loads.
	if res.Kernels[1].Instrs == 0 {
		t.Fatal("bypassed kernel made no progress")
	}
	if _, err := s.RunWorkload([]Kernel{bp}, Scheme{
		Partition: PartitionEven, BypassL1: []bool{false, true},
	}); err == nil {
		t.Fatal("BypassL1 arity mismatch accepted")
	}
}

func TestL2MILEndToEnd(t *testing.T) {
	s := NewSession(ScaledConfig(2), 60_000)
	s.ProfileCycles = 20_000
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	res, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{
		Partition: PartitionWarpedSlicer,
		Limiting:  LimitL2MIL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels[0].Instrs == 0 || res.Kernels[1].Instrs == 0 {
		t.Fatal("a kernel starved under L2MIL")
	}
	if res.Scheme.Name() != "WS-L2MIL" {
		t.Fatalf("scheme name = %q", res.Scheme.Name())
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	r, err := s.RunIsolated(bp)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultEnergyModel()
	e := r.Energy(m)
	if e.DynamicPJ <= 0 || e.LeakagePJ <= 0 {
		t.Fatalf("energy breakdown %+v", e)
	}
	if r.Mem.L2Accesses == 0 || r.Mem.DRAMAccesses == 0 || r.Mem.Flits == 0 {
		t.Fatalf("memory-system counters empty: %+v", r.Mem)
	}
	eff := r.InstrsPerMicroJoule(m)
	if eff <= 0 {
		t.Fatalf("efficiency %v", eff)
	}
}

func TestPartitionAPI(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	ds := []Kernel{bp, sv}

	row, _, err := s.Partition(ds, PartitionSMK, nil)
	if err != nil || len(row) != 2 {
		t.Fatalf("SMK partition: %v %v", row, err)
	}
	row, _, err = s.Partition(ds, PartitionLeftover, nil)
	if err != nil || row[0] < row[1] {
		t.Fatalf("leftover must favour kernel 0: %v %v", row, err)
	}
	if _, _, err = s.Partition(ds, PartitionKind(99), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Spatial has no single row.
	row, _, err = s.Partition(ds, PartitionSpatial, nil)
	if err != nil || row != nil {
		t.Fatalf("spatial: %v %v", row, err)
	}
}

func TestSessionAccessors(t *testing.T) {
	s := testSession(t)
	if s.Cycles() != 20_000 {
		t.Fatalf("Cycles = %d", s.Cycles())
	}
	cfg := s.Config()
	if cfg.NumSMs != 2 {
		t.Fatalf("NumSMs = %d", cfg.NumSMs)
	}
}

func TestWorkloadResultMetadata(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	res, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{Partition: PartitionEven})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IsolatedIPC) != 2 || res.IsolatedIPC[0] <= 0 {
		t.Fatalf("isolated IPCs missing: %v", res.IsolatedIPC)
	}
	if res.Scheme.Partition != PartitionEven {
		t.Fatal("scheme not recorded")
	}
	sp := res.SpeedupsOf()
	for i, v := range sp {
		if v <= 0 || v > 1.5 {
			t.Fatalf("speedup[%d] = %v out of plausible range", i, v)
		}
	}
}

func TestTBThrottleEndToEnd(t *testing.T) {
	s := NewSession(ScaledConfig(2), 60_000)
	s.ProfileCycles = 20_000
	bp, _ := Benchmark("bp")
	ks, _ := Benchmark("ks")
	res, err := s.RunWorkload([]Kernel{bp, ks}, Scheme{
		Partition:  PartitionWarpedSlicer,
		TBThrottle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme.Name() != "WS-TBT" {
		t.Fatalf("name = %q", res.Scheme.Name())
	}
	if res.Kernels[0].Instrs == 0 || res.Kernels[1].Instrs == 0 {
		t.Fatal("a kernel starved under TB throttling")
	}
	// Spatial + TBThrottle is rejected (no uniform partition row).
	if _, err := s.RunWorkload([]Kernel{bp, ks}, Scheme{
		Partition: PartitionSpatial, TBThrottle: true,
	}); err == nil {
		t.Fatal("TBThrottle with spatial partition accepted")
	}
}
