// Command bench is the repository's performance ledger: four workloads,
// the end-to-end metrics BENCHMARK.json bounds, and per-layer metrics
// attributed to each package from sm.Tick up to POST /jobs. README.md in
// this directory explains the workloads, the metrics and how they
// interact.
//
// Three modes:
//
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	    run one workload in this process and print one result line
//	    (the form the PR driver calls);
//	go run ./bench -seed N -out FILE [-trace 1] [-runs R]
//	    run every workload R times, each in a fresh child process, and
//	    write the ledger;
//	go run ./bench -compare A.json B.json
//	    compare two ledgers with the bounds in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process and print the driver's result line")
	seed := fs.Uint64("seed", 1, "the only input: the simulated machine's seed and the request sequence")
	seconds := fs.Int("seconds", 0, "length of the timed region (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 repeats the work with spans and layer drives and reports the per-layer metrics")
	runs := fs.Int("runs", 5, "ledger mode: child runs per workload")
	out := fs.String("out", "", "ledger mode: write the ledger to this file")
	detail := fs.String("detail", "", "child mode: also write the full result (inputs, checks, spans) to this file")
	compare := fs.Bool("compare", false, "compare two ledger files given as arguments")
	smoke := fs.Bool("smoke", false, "about 1/20 of the work, every check on (what go test ./bench runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two ledger files")
		}
		return compareLedgers(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	// The host rule: load comes from one process that never asks for more
	// parallelism than the machine has.
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		return fmt.Errorf("refusing to measure: GOMAXPROCS=%d exceeds nproc=%d, every worker pool would be oversubscribed", g, n)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
		if *smoke {
			*seconds = 1
		}
	}
	o := options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke, Workdir: workdir}
	if *workload != "" {
		res, err := runWorkload(spec, *workload, o)
		if err != nil {
			return err
		}
		if *detail != "" {
			if err := writeJSON(*detail, res); err != nil {
				return err
			}
		}
		return res.printDriverLine(os.Stdout, spec)
	}
	return runLedger(spec, o, *runs, *out)
}

// workdir holds journals, caches, checkpoints and the children's detail
// files; it sits inside the checkout because the PR driver forbids
// writing anywhere else, and .gitignore names it.
const workdir = ".bench_build"

// options is what one workload run is sized by.
type options struct {
	Seed    uint64
	Seconds int
	Trace   bool
	Smoke   bool
	Workdir string
}

// workloads maps each name in BENCHMARK.json to its implementation.
var workloads = map[string]func(*runCtx) error{
	"engine-compute": runEngine,
	"engine-mem":     runEngine,
	"sweep-fig12":    runSweep,
	"serve-mixed":    runServe,
}

// runWorkload executes one workload in this process.
func runWorkload(spec *benchSpec, name string, o options) (*result, error) {
	fn, ok := workloads[name]
	if !ok || !spec.hasWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q (BENCHMARK.json lists %s)", name, strings.Join(spec.workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.Workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.Workdir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{
		options: o,
		name:    name,
		dir:     dir,
		sz:      sizesFor(o),
		rec:     newRecorder(spec, o.Trace),
		tr:      &tracer{on: o.Trace},
	}
	if err := fn(c); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	c.rec.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	metrics, err := c.rec.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := &result{
		Workload:  name,
		Seed:      o.Seed,
		Seconds:   o.Seconds,
		Trace:     o.Trace,
		Smoke:     o.Smoke,
		Correct:   true,
		Attempted: c.attempted,
		Failed:    c.failed,
		Inputs:    c.inputs,
		SimDigest: c.simDigest,
		Checks:    c.checks,
		Notes:     c.notes,
		Metrics:   metrics,
		Spans:     c.tr.aggregate(),
	}
	for _, ck := range c.checks {
		if !ck.OK {
			res.Correct = false
		}
	}
	return res, nil
}

// runLedger runs every workload runs times, each in a fresh child (so
// RSS, GC state and the process-wide gpu.PhaseTotals never leak between
// workloads), and writes one ledger.
func runLedger(spec *benchSpec, o options, runs int, out string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.Workdir, 0o755); err != nil {
		return err
	}
	led := &ledger{Host: hostInfo(), Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Smoke: o.Smoke, Runs: runs}
	// The workloads take turns, so that a slow minute on a shared host
	// costs each of them one run and none of them its median.
	names := spec.workloadNames()
	rs := make(map[string][]*result)
	for i := 0; i < runs; i++ {
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d\n", name, i+1, runs)
			r, err := runChild(exe, name, o)
			if err != nil {
				return err
			}
			// Refuse to report rather than publish a number from a run
			// whose outputs were wrong or whose operations failed.
			for _, ck := range r.Checks {
				if !ck.OK {
					return fmt.Errorf("%s: correctness check %q failed: %s", name, ck.Name, ck.Detail)
				}
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed on inputs that are all valid", name, r.Failed, r.Attempted)
			}
			rs[name] = append(rs[name], r)
		}
	}
	for _, name := range names {
		lw, err := mergeRuns(rs[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		led.Workloads = append(led.Workloads, lw)
	}
	led.print(os.Stdout)
	if out == "" {
		return nil
	}
	return writeJSON(out, led)
}

// runChild re-executes this binary for one workload and reads the full
// result back through a detail file.
func runChild(exe, name string, o options) (*result, error) {
	f, err := os.CreateTemp(o.Workdir, "detail-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[o.Trace],
		"-detail", f.Name(),
	}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child failed: %v: %s", name, err, strings.TrimSpace(stderr.String()))
	}
	var r result
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: decoding child result: %w", name, err)
	}
	return &r, nil
}

// host is recorded in every ledger: a number without its machine is not
// comparable.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &h.LoadAvg1)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
