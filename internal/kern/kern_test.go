package kern

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/xrand"
)

func TestAllBenchmarksValidate(t *testing.T) {
	cfg := config.Default()
	for _, d := range Benchmarks() {
		if err := d.Validate(&cfg); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// TestTable2Occupancies pins the static-resource occupancies to the
// paper's Table 2 (exact by construction).
func TestTable2Occupancies(t *testing.T) {
	cfg := config.Default()
	want := map[string]struct{ rf, smem, thr, tb float64 }{
		"cp": {0.875, 0.667, 0.667, 1.000},
		"hs": {0.984, 0.219, 0.583, 0.438},
		"dc": {0.562, 0.333, 0.333, 1.000},
		"pf": {0.750, 0.250, 1.000, 0.750},
		"bp": {0.562, 0.133, 1.000, 0.750},
		"bs": {0.750, 0.000, 1.000, 0.375},
		"st": {0.750, 0.000, 1.000, 0.375},
		"3m": {0.562, 0.000, 1.000, 0.750},
		"sv": {0.750, 0.000, 1.000, 1.000},
		"cd": {1.000, 0.000, 0.333, 1.000},
		"s2": {0.500, 0.000, 0.667, 1.000},
		"ks": {0.562, 0.000, 1.000, 0.750},
		"ax": {0.562, 0.000, 1.000, 0.750},
	}
	const tol = 0.02
	for _, d := range Benchmarks() {
		w, ok := want[d.Name]
		if !ok {
			t.Fatalf("unexpected benchmark %q", d.Name)
		}
		occ := d.OccupancyAt(&cfg, d.MaxTBsPerSM(&cfg))
		for _, c := range []struct {
			name       string
			got, want2 float64
		}{
			{"RF", occ.RF, w.rf}, {"SMEM", occ.Smem, w.smem},
			{"Threads", occ.Threads, w.thr}, {"TBs", occ.TBs, w.tb},
		} {
			if diff := c.got - c.want2; diff > tol || diff < -tol {
				t.Errorf("%s %s occupancy = %.3f, want %.3f", d.Name, c.name, c.got, c.want2)
			}
		}
	}
}

// TestTable2InstructionMix pins Cinst/Minst and Req/Minst to Table 2.
func TestTable2InstructionMix(t *testing.T) {
	want := map[string]struct{ cpm, req int }{
		"cp": {4, 2}, "hs": {7, 3}, "dc": {5, 1}, "pf": {6, 2},
		"bp": {6, 2}, "bs": {4, 1}, "st": {4, 1}, "3m": {2, 1},
		"sv": {3, 3}, "cd": {9, 6}, "s2": {2, 2}, "ks": {3, 17}, "ax": {2, 11},
	}
	for _, d := range Benchmarks() {
		w := want[d.Name]
		if d.CPerM != w.cpm {
			t.Errorf("%s CPerM = %d, want %d", d.Name, d.CPerM, w.cpm)
		}
		if d.ReqPerMinst != w.req {
			t.Errorf("%s ReqPerMinst = %d, want %d", d.Name, d.ReqPerMinst, w.req)
		}
	}
}

func TestTable2Classes(t *testing.T) {
	wantM := map[string]bool{"3m": true, "sv": true, "cd": true, "s2": true, "ks": true, "ax": true}
	for _, d := range Benchmarks() {
		if got := d.Class == Memory; got != wantM[d.Name] {
			t.Errorf("%s class = %v, want M=%v", d.Name, d.Class, wantM[d.Name])
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("bp")
	if err != nil || d.Name != "bp" {
		t.Fatalf("ByName(bp) = %v, %v", d.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{"cp", "hs", "dc", "pf", "bp", "bs", "st", "3m", "sv", "cd", "s2", "ks", "ax"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %d names", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNextKindLoopShape(t *testing.T) {
	d, _ := ByName("bp") // CPerM 6
	rng := xrand.New(1)
	pos := 0
	var kind InstrKind
	counts := map[InstrKind]int{}
	for i := 0; i < 7000; i++ {
		kind, pos = d.NextKind(pos, rng)
		counts[kind]++
	}
	mem := counts[MemLoad] + counts[MemStore]
	compute := counts[ALU] + counts[SFU]
	if mem == 0 {
		t.Fatal("no memory instructions generated")
	}
	ratio := float64(compute) / float64(mem)
	if ratio < 5.8 || ratio > 6.2 {
		t.Fatalf("Cinst/Minst = %v, want ~6", ratio)
	}
}

func TestGenLinesCount(t *testing.T) {
	d, _ := ByName("ks")
	rng := xrand.New(2)
	var s AddrState
	d.InitAddrState(&s, 0, 0)
	var buf [32]uint64
	if n := d.GenLines(&s, rng, buf[:], false, &Warm{}); n != 17 {
		t.Fatalf("ks GenLines = %d requests, want 17", n)
	}
}

func TestGenLinesStoreAvoidsReadRegions(t *testing.T) {
	d, _ := ByName("dc") // has a hot region
	rng := xrand.New(3)
	var s AddrState
	warm := Warm{Lines: 512}
	d.InitAddrState(&s, 1, warm.Lines)
	lo := d.HotLines + warm.Lines
	var buf [32]uint64
	for i := 0; i < 1000; i++ {
		n := d.GenLines(&s, rng, buf[:], true, &warm)
		for j := 0; j < n; j++ {
			if buf[j] < lo {
				t.Fatalf("store touched read region line %d (< %d)", buf[j], lo)
			}
		}
	}
}

func TestGenLinesReusePullsFromPreviousInstr(t *testing.T) {
	d := Desc{
		Name: "t", ThreadsPerTB: 32, CPerM: 1, ReqPerMinst: 2,
		DepDist: 1, MaxPendingLoads: 1, FootprintLines: 100,
		ReuseProb: 1.0, ReuseWindow: 4, InstrsPerWarp: 10,
	}
	rng := xrand.New(4)
	var s AddrState
	d.InitAddrState(&s, 0, 0)
	var first, second [32]uint64
	n1 := d.GenLines(&s, rng, first[:], false, &Warm{})
	n2 := d.GenLines(&s, rng, second[:], false, &Warm{})
	// With ReuseProb 1 every request of the second instruction must be a
	// line of the first.
	for i := 0; i < n2; i++ {
		found := false
		for j := 0; j < n1; j++ {
			if second[i] == first[j] {
				found = true
			}
		}
		if !found {
			t.Fatalf("request %d (%d) not drawn from previous instruction %v", i, second[i], first[:n1])
		}
	}
}

func TestWarpRegionsDisjoint(t *testing.T) {
	d, _ := ByName("bs")
	var a, b AddrState
	d.InitAddrState(&a, 0, 0)
	d.InitAddrState(&b, 1, 0)
	if a.Base == b.Base {
		t.Fatal("consecutive warp sequence numbers share a streaming base")
	}
}

func TestEffectiveWarmLines(t *testing.T) {
	d := Desc{WarmL2Frac: 0.5}
	if got := d.EffectiveWarmLines(16384); got != 8192 {
		t.Fatalf("warm = %d, want 8192", got)
	}
	if (&Desc{}).EffectiveWarmLines(16384) != 0 {
		t.Fatal("zero frac must be zero lines")
	}
}

func TestDominantShareMonotone(t *testing.T) {
	cfg := config.Default()
	d, _ := ByName("hs")
	f := func(n uint8) bool {
		a := int(n % 7)
		return d.DominantShare(&cfg, a) <= d.DominantShare(&cfg, a+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadDescs(t *testing.T) {
	cfg := config.Default()
	good, _ := ByName("bp")

	d := good
	d.Name = ""
	if d.Validate(&cfg) == nil {
		t.Error("empty name accepted")
	}
	d = good
	d.ThreadsPerTB = 33
	if d.Validate(&cfg) == nil {
		t.Error("non-multiple-of-warp threads accepted")
	}
	d = good
	d.ReqPerMinst = 0
	if d.Validate(&cfg) == nil {
		t.Error("zero requests accepted")
	}
	d = good
	d.MaxPendingLoads = 9
	if d.Validate(&cfg) == nil {
		t.Error("MaxPendingLoads 9 accepted")
	}
	d = good
	d.FootprintLines = 0
	if d.Validate(&cfg) == nil {
		t.Error("zero footprint accepted")
	}
	d = good
	d.InstrsPerWarp = 0
	if d.Validate(&cfg) == nil {
		t.Error("zero lifetime accepted")
	}
	d = good
	d.RegsPerThread = 100000
	if d.Validate(&cfg) == nil {
		t.Error("unschedulable TB accepted")
	}
}

func TestClassString(t *testing.T) {
	if Compute.String() != "C" || Memory.String() != "M" {
		t.Error("class strings wrong")
	}
}

func TestRandomDescAlwaysValid(t *testing.T) {
	cfg := config.Default()
	rng := xrand.New(99)
	for i := 0; i < 500; i++ {
		d := RandomDesc(rng, &cfg)
		if err := d.Validate(&cfg); err != nil {
			t.Fatalf("draw %d: %v (%+v)", i, err, d)
		}
		if d.MaxTBsPerSM(&cfg) < 1 {
			t.Fatalf("draw %d: no TB fits", i)
		}
	}
}
