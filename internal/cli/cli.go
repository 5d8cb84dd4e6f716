// Package cli holds the sweep-robustness plumbing every driver shares:
// the -check/-on-error/-journal/-timeout flag set, the SIGINT/SIGTERM
// cancellation context, and uniform failed-point reporting. Drivers stay
// thin; the behaviour (drain-and-journal on interrupt, skip-or-abort
// on per-point failure) is identical across commands.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

// Robustness bundles the hardening options shared by the sweep drivers.
type Robustness struct {
	// Check enables the simulator's per-cycle invariant watchdog.
	Check bool
	// OnError is the failed-point policy: "abort" stops at the first
	// error (submission order); "skip" reports every failed point and
	// keeps the rest of the grid.
	OnError string
	// JournalPath, when non-empty, records completed points in a
	// crash-safe journal; on restart, journaled points are replayed
	// instead of re-simulated.
	JournalPath string
	// Timeout bounds each job's wall-clock time (0 = none).
	Timeout time.Duration
	// Cache enables the content-addressed result cache: points whose
	// job fingerprint was already simulated (by this process, or — with
	// CacheDir — by an earlier one) are served from the cache instead of
	// re-simulated.
	Cache bool
	// CacheDir, when non-empty, persists the result cache to
	// <CacheDir>/results.jsonl; it implies Cache.
	CacheDir string
}

// AddFlags registers the shared flags named (without their dash) on fs,
// or all of them when none is named: -check, -on-error, -journal,
// -timeout, -cache and -cache-dir. Use flag.CommandLine from a driver's
// main.
func AddFlags(fs *flag.FlagSet, names ...string) *Robustness {
	r := &Robustness{}
	all := flag.NewFlagSet("", flag.PanicOnError)
	all.BoolVar(&r.Check, "check", false,
		"enable the per-cycle simulator invariant watchdog")
	all.StringVar(&r.OnError, "on-error", "abort",
		"failed-point policy: abort (stop at first error) or skip (report failures, keep the rest)")
	all.StringVar(&r.JournalPath, "journal", "",
		"result journal path; completed points are replayed on restart (empty = disabled)")
	all.DurationVar(&r.Timeout, "timeout", 0,
		"per-job wall-clock timeout, e.g. 90s or 10m (0 = none)")
	all.BoolVar(&r.Cache, "cache", false,
		"serve repeated points from the content-addressed result cache")
	all.StringVar(&r.CacheDir, "cache-dir", "",
		"persist the result cache to <dir>/results.jsonl across runs (implies -cache)")
	if len(names) == 0 {
		all.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	}
	for _, name := range names {
		f := all.Lookup(name)
		if f == nil {
			panic("cli: no shared flag -" + name)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return r
}

// Validate rejects unknown option values before any simulation starts.
func (r *Robustness) Validate() error {
	if r.OnError != "abort" && r.OnError != "skip" {
		return fmt.Errorf("-on-error=%q: want abort or skip", r.OnError)
	}
	if r.Timeout < 0 {
		return fmt.Errorf("-timeout=%s: want a duration >= 0 (0 = none)", r.Timeout)
	}
	return nil
}

// CheckMachine refuses the machine and pool flags a simulate driver
// shares — -sms, -cycles, -profile-cycles and -parallel — when out of
// range, naming the flag, before anything is simulated or written.
func CheckMachine(sms int, cycles, profileCycles int64, parallel int) error {
	switch {
	case sms < 1:
		return fmt.Errorf("-sms=%d: want a count >= 1", sms)
	case cycles < 1:
		return fmt.Errorf("-cycles=%d: want a count >= 1", cycles)
	case profileCycles < 0:
		return fmt.Errorf("-profile-cycles=%d: want a count >= 0 (0 = -cycles)", profileCycles)
	case parallel < 0:
		return fmt.Errorf("-parallel=%d: want a count >= 0 (0 = GOMAXPROCS)", parallel)
	}
	return nil
}

// Skip reports whether failed points should be skipped rather than
// aborting the run.
func (r *Robustness) Skip() bool { return r.OnError == "skip" }

// OpenJournal opens the result journal when one was requested and
// reports how much prior progress it holds. Returns (nil, nil) when
// journaling is disabled.
func (r *Robustness) OpenJournal(logf func(format string, args ...any)) (*journal.Journal, error) {
	if r.JournalPath == "" {
		return nil, nil
	}
	j, err := journal.Open(r.JournalPath)
	if err != nil {
		return nil, err
	}
	if n := j.Len(); n > 0 && logf != nil {
		logf("journal %s: resuming past %d journaled point(s)", r.JournalPath, n)
	}
	return j, nil
}

// OpenCache opens the result cache when one was requested (-cache or
// -cache-dir) and reports how many entries the persistent tier holds.
// Returns (nil, nil) when caching is disabled.
func (r *Robustness) OpenCache(logf func(format string, args ...any)) (*resultcache.Store, error) {
	if !r.Cache && r.CacheDir == "" {
		return nil, nil
	}
	var opts resultcache.Options
	if r.CacheDir != "" {
		if err := os.MkdirAll(r.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("-cache-dir: %w", err)
		}
		opts.Path = r.CacheDir + string(os.PathSeparator) + "results.jsonl"
	}
	c, err := resultcache.Open(opts)
	if err != nil {
		return nil, err
	}
	if n := c.Len(); n > 0 && logf != nil {
		logf("result cache %s: %d entr%s available", opts.Path, n, plural(n, "y", "ies"))
	}
	return c, nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Runner validates the options and returns a pool of workers (0 =
// GOMAXPROCS) running under the per-job timeout and the invariant
// watchdog (-check) with the journal and result cache the flags ask
// for, and a function that closes those stores.
func (r *Robustness) Runner(workers int, logf func(format string, args ...any)) (*runner.Runner, func(), error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	run := runner.New(workers)
	run.Timeout = r.Timeout
	run.Check = r.Check
	closeStores := func() {
		if run.Journal != nil {
			run.Journal.Close()
		}
		if run.Cache != nil {
			run.Cache.Close()
		}
	}
	var err error
	if run.Journal, err = r.OpenJournal(logf); err == nil {
		run.Cache, err = r.OpenCache(logf)
	}
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	return run, closeStores, nil
}

// Failures applies the failed-point policy to a finished grid. Under
// "abort" it returns the first error in submission order. Under "skip"
// it logs every failure with its job attribution and transience class
// (runner.IsTransient — a transient point may pass on rerun, a
// permanent one will not) and returns the count; cancellation is the
// exception: an interrupted run aborts even under "skip", because the
// unfinished points did not fail, the user stopped the sweep.
func (r *Robustness) Failures(logf func(format string, args ...any), results []runner.Result) (int, error) {
	if !r.Skip() {
		return 0, runner.FirstErr(results)
	}
	n := 0
	for i, res := range results {
		if res.Err == nil {
			continue
		}
		if errors.Is(res.Err, context.Canceled) {
			return n, res.Err
		}
		n++
		class := "permanent"
		if runner.IsTransient(res.Err) {
			class = "transient"
		}
		logf("point %d (%s): %s failure: %v", i, res.Key, class, res.Err)
	}
	return n, nil
}

// FailureSummary renders the one-line post-mortem a skip-mode driver
// prints before its non-zero exit, so the failure is diagnosable from
// logs without rerunning the sweep.
func FailureSummary(results []runner.Result) string {
	errs := runner.Errs(results)
	if len(errs) == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d points failed, first error: %v",
		len(errs), len(results), runner.FirstErr(results))
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM. On
// cancellation, in-flight simulations stop at the next interrupt poll,
// journaled progress is preserved, and a second signal kills the process
// immediately (standard signal.NotifyContext behaviour).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
