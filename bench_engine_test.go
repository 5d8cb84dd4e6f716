// Engine benchmarks: raw cycle-loop throughput (cycles/sec) and GC
// pressure (allocs/cycle) of the simulator core, measured over gpu.Run
// directly so session/profile overhead does not blur the numbers.
//
// The suite is the perf-regression harness for the cycle engine:
// results/BENCH_engine.json records the pre-parallel-engine baseline;
// CI runs the suite with -benchtime=1x as a smoke test. Run with
//
//	go test -run '^$' -bench BenchmarkSimulatorCycleRate -benchmem
package gcke_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/trace"
)

const engineBenchCycles = 20_000

// engineWorkload builds descriptors and an even quota for the named
// kernels on a benchCfg-scaled machine.
func engineWorkload(b *testing.B, names ...string) ([]*kern.Desc, [][]int, gcke.Config) {
	b.Helper()
	cfg := gcke.ScaledConfig(4)
	descs := make([]*kern.Desc, len(names))
	for i, n := range names {
		d, err := kern.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		dd := d
		descs[i] = &dd
	}
	per := make([]int, len(descs))
	for i, d := range descs {
		per[i] = d.MaxTBsPerSM(&cfg) / len(descs)
		if per[i] < 1 {
			per[i] = 1
		}
	}
	return descs, gpu.UniformQuota(cfg.NumSMs, per), cfg
}

// runEngineBench runs the cycle loop b.N times under opts and reports
// cycles/sec and allocs/cycle.
func runEngineBench(b *testing.B, names []string, mutate func(*gpu.Options)) {
	b.Helper()
	descs, quota, cfg := engineWorkload(b, names...)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := &gpu.Options{Cycles: engineBenchCycles, Quota: quota}
		if mutate != nil {
			mutate(opts)
		}
		if _, err := gpu.Run(cfg, descs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	totalCycles := float64(b.N) * engineBenchCycles
	b.ReportMetric(totalCycles/b.Elapsed().Seconds(), "cycles/sec")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/totalCycles, "allocs/cycle")
}

// BenchmarkSimulatorCycleRate measures raw simulator throughput across
// the engine's main operating points: one kernel, a two-kernel CKE mix,
// and the CKE mix with cycle-level tracing enabled.
func BenchmarkSimulatorCycleRate(b *testing.B) {
	b.Run("1kernel", func(b *testing.B) {
		runEngineBench(b, []string{"bp"}, nil)
	})
	b.Run("2kernelCKE", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, nil)
	})
	b.Run("2kernelCKE-trace", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, func(o *gpu.Options) {
			o.Trace = trace.New(1 << 14)
		})
	})
	// Intra-run parallelism. The unsuffixed subtests above run the
	// default engine, which is the serial loop; the fan-out subtests
	// below lose to it on every host measured so far (a cycle is a few
	// microseconds of work against three hand-offs), and on one core
	// they measure the fan-out overhead alone.
	// -serial pins both fan-outs to 1; -parallel fans out the SM phase
	// only; -partparallel the memory partitions only; -pipelined both,
	// which additionally overlaps the memory side of cycle N with the SM
	// phase of cycle N+1.
	b.Run("2kernelCKE-serial", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, func(o *gpu.Options) {
			o.Workers = 1
			o.PartWorkers = 1
		})
	})
	b.Run("2kernelCKE-parallel", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, func(o *gpu.Options) {
			o.Workers = runtime.GOMAXPROCS(0)
			o.PartWorkers = 1
		})
	})
	b.Run("2kernelCKE-partparallel", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, func(o *gpu.Options) {
			o.Workers = 1
			o.PartWorkers = runtime.GOMAXPROCS(0)
		})
	})
	b.Run("2kernelCKE-pipelined", func(b *testing.B) {
		runEngineBench(b, []string{"bp", "sv"}, func(o *gpu.Options) {
			o.Workers = runtime.GOMAXPROCS(0)
			o.PartWorkers = runtime.GOMAXPROCS(0)
		})
	})
}

// engineRate runs the 2kernelCKE workload once with the given fan-outs
// and returns cycles/sec and allocs/cycle.
func engineRate(t *testing.T, workers, partWorkers int, cycles int64) (float64, float64) {
	t.Helper()
	cfg := gcke.ScaledConfig(4)
	var descs []*kern.Desc
	for _, n := range []string{"bp", "sv"} {
		d, err := kern.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		dd := d
		descs = append(descs, &dd)
	}
	per := make([]int, len(descs))
	for i, d := range descs {
		per[i] = d.MaxTBsPerSM(&cfg) / len(descs)
		if per[i] < 1 {
			per[i] = 1
		}
	}
	opts := &gpu.Options{
		Cycles:      cycles,
		Quota:       gpu.UniformQuota(cfg.NumSMs, per),
		Workers:     workers,
		PartWorkers: partWorkers,
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if _, err := gpu.Run(cfg, descs, opts); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(cycles) / elapsed.Seconds(),
		float64(ms1.Mallocs-ms0.Mallocs) / float64(cycles)
}

// TestEngineBenchGate is the CI perf-regression gate (set BENCH_SMOKE=1
// to run it): allocs/cycle on the 2kernelCKE mix must not regress past
// the pooled-engine budget, and the engine a caller gets by default
// (Workers = PartWorkers = 0) must not be slower than the serial loop on
// the machine the gate runs on, whatever its core count. The second leg
// never skips: a default that resolves to a fan-out which loses to
// serial on this host — the state PR 9 shipped — fails here.
func TestEngineBenchGate(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the engine perf gate")
	}
	const gateCycles = 40_000
	const allocBudget = 0.30

	_, allocs := engineRate(t, 2, 2, gateCycles)
	t.Logf("workers=2 partWorkers=2: %.4f allocs/cycle (budget %.2f)", allocs, allocBudget)
	if allocs > allocBudget {
		t.Errorf("allocs/cycle = %.4f, budget %.2f: the engine regressed into per-cycle allocation",
			allocs, allocBudget)
	}

	// Best of three alternating runs per leg: a noisy neighbour slows a
	// run down, nothing speeds one up.
	var serial, def float64
	for i := 0; i < 3; i++ {
		s, _ := engineRate(t, 1, 1, gateCycles)
		d, _ := engineRate(t, 0, 0, gateCycles)
		serial, def = max(serial, s), max(def, d)
	}
	t.Logf("GOMAXPROCS=%d: serial %.0f cycles/sec, default %.0f cycles/sec (%.2fx)",
		runtime.GOMAXPROCS(0), serial, def, def/serial)
	if def < 0.95*serial {
		t.Errorf("default engine %.0f cycles/sec vs serial %.0f: %.2fx < 0.95x on %d cores",
			def, serial, def/serial, runtime.GOMAXPROCS(0))
	}
}
