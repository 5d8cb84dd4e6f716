package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/gpu"
)

// Profiling bundles the performance-diagnosis options shared by every
// driver: the pprof outputs and the cycle engine's per-phase wall-clock
// trace.
type Profiling struct {
	// CPUProfile / MemProfile / BlockProfile / MutexProfile are output
	// paths for the corresponding pprof profiles (empty = disabled).
	CPUProfile   string
	MemProfile   string
	BlockProfile string
	MutexProfile string
	// PhaseTrace enables the engine's per-phase wall-clock counters
	// (gpu.Options.PhaseTime) and prints a phase breakdown at exit.
	PhaseTrace bool
}

// AddProfileFlags registers -cpuprofile, -memprofile, -blockprofile,
// -mutexprofile and -phasetrace on fs.
func AddProfileFlags(fs *flag.FlagSet) *Profiling {
	p := &Profiling{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "",
		"write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "",
		"write an allocation profile to this file at exit")
	fs.StringVar(&p.BlockProfile, "blockprofile", "",
		"write a goroutine blocking profile to this file at exit")
	fs.StringVar(&p.MutexProfile, "mutexprofile", "",
		"write a mutex contention profile to this file at exit")
	fs.BoolVar(&p.PhaseTrace, "phasetrace", false,
		"measure per-phase engine time and print a breakdown at exit")
	return p
}

// Start begins the requested profiles and returns a stop function that
// flushes them; call it (usually via defer) before exiting. The stop
// function is never nil.
func (p *Profiling) Start() (func(), error) {
	var cpuFile *os.File
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return func() {}, fmt.Errorf("cli: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() {}, fmt.Errorf("cli: -cpuprofile: %w", err)
		}
		cpuFile = f
	}
	if p.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if p.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.MemProfile != "" {
			if f, err := os.Create(p.MemProfile); err == nil {
				runtime.GC() // materialize the final live-heap numbers
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "cli: -memprofile: %v\n", err)
			}
		}
		if p.BlockProfile != "" {
			if f, err := os.Create(p.BlockProfile); err == nil {
				pprof.Lookup("block").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "cli: -blockprofile: %v\n", err)
			}
		}
		if p.MutexProfile != "" {
			if f, err := os.Create(p.MutexProfile); err == nil {
				pprof.Lookup("mutex").WriteTo(f, 0)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "cli: -mutexprofile: %v\n", err)
			}
		}
		if p.PhaseTrace {
			PrintPhaseTrace(os.Stderr)
		}
	}, nil
}

// PrintPhaseTrace writes the process-wide per-phase engine time
// breakdown accumulated so far (all runs with PhaseTime enabled).
func PrintPhaseTrace(w *os.File) {
	t := gpu.PhaseTotals()
	if t.Cycles == 0 {
		fmt.Fprintln(w, "phasetrace: no phase-timed cycles recorded")
		return
	}
	total := t.TotalNs()
	pct := func(ns int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(total)
	}
	fmt.Fprintf(w, "phasetrace: %d cycles, %.1f ms engine time\n", t.Cycles, float64(total)/1e6)
	fmt.Fprintf(w, "  sm        %8.1f ms (%5.1f%%)\n", float64(t.SMNs)/1e6, pct(t.SMNs))
	fmt.Fprintf(w, "  drain     %8.1f ms (%5.1f%%)\n", float64(t.DrainNs)/1e6, pct(t.DrainNs))
	fmt.Fprintf(w, "  reqnet    %8.1f ms (%5.1f%%)\n", float64(t.ReqNetNs)/1e6, pct(t.ReqNetNs))
	fmt.Fprintf(w, "  partition %8.1f ms (%5.1f%%)\n", float64(t.PartNs)/1e6, pct(t.PartNs))
	fmt.Fprintf(w, "  respnet   %8.1f ms (%5.1f%%)\n", float64(t.RespNetNs)/1e6, pct(t.RespNetNs))
}
