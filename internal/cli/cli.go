// Package cli holds the sweep-robustness plumbing every driver shares:
// the -check/-journal/-timeout/-cache flag set, the SIGINT/SIGTERM
// cancellation context, and uniform failed-point reporting. Drivers stay
// thin; the behaviour (drain-and-journal on interrupt, every failed
// point reported with its class) is identical across commands.
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

	"repro/internal/resultcache"
	"repro/internal/runner"
)

// Robustness bundles the hardening options shared by the sweep drivers.
type Robustness struct {
	// Check enables the simulator's per-cycle invariant watchdog.
	Check bool
	// JournalPath, when non-empty, is the durable result store's file:
	// every completed point is stored there, and on restart the points
	// it holds are served instead of re-simulated.
	JournalPath string
	// Timeout bounds each job's wall-clock time (0 = none).
	Timeout time.Duration
	// Cache, without JournalPath, enables a memory-only result store:
	// a point whose job fingerprint this process already simulated is
	// served from it instead of re-simulated.
	Cache bool
}

// AddFlags registers the shared flags named (without their dash) on fs:
// any of -check, -journal, -timeout and -cache. Use flag.CommandLine
// from a command's main.
func AddFlags(fs *flag.FlagSet, names ...string) *Robustness {
	r := &Robustness{}
	all := flag.NewFlagSet("", flag.PanicOnError)
	all.BoolVar(&r.Check, "check", false,
		"enable the per-cycle simulator invariant watchdog")
	all.StringVar(&r.JournalPath, "journal", "",
		"durable result store file; completed points are served from it on restart (empty = none)")
	all.DurationVar(&r.Timeout, "timeout", 0,
		"per-job wall-clock timeout, e.g. 90s or 10m (0 = none)")
	all.BoolVar(&r.Cache, "cache", false,
		"serve repeated points from a memory-only result store (-journal's store does already)")
	for _, name := range names {
		f := all.Lookup(name)
		if f == nil {
			panic("cli: no shared flag -" + name)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return r
}

// Validate refuses a negative -timeout before any simulation starts.
func (r *Robustness) Validate() error {
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

// OpenStore opens the result store the flags ask for — durable at
// -journal, else memory-only with -cache — and reports how many points a
// durable one already holds. Returns (nil, nil) when neither is set.
func (r *Robustness) OpenStore(logf func(format string, args ...any)) (*resultcache.Store, error) {
	if r.JournalPath == "" && !r.Cache {
		return nil, nil
	}
	s, err := resultcache.Open(resultcache.Options{Path: r.JournalPath})
	if err != nil {
		return nil, err
	}
	if n := s.Len(); n > 0 && logf != nil {
		logf("journal %s: resuming past %d stored point(s)", r.JournalPath, n)
	}
	return s, nil
}

// Runner validates the options and returns a pool of workers (0 =
// GOMAXPROCS) running under the per-job timeout and the invariant
// watchdog (-check) with the result store the flags ask for, and a
// function that closes it.
func (r *Robustness) Runner(workers int, logf func(format string, args ...any)) (*runner.Runner, func(), error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	store, err := r.OpenStore(logf)
	if err != nil {
		return nil, nil, err
	}
	run := runner.New(workers)
	run.Timeout = r.Timeout
	run.Check = r.Check
	run.Cache = store
	return run, func() {
		if store != nil {
			store.Close()
		}
	}, nil
}

// Failures reports the failed points of a finished grid: it logs every
// failure with its job attribution and transience class
// (runner.IsTransient — a transient point may pass on rerun, a
// permanent one will not) and returns the count. Cancellation is the
// exception: an interrupted run returns the cancellation error, because
// the unfinished points did not fail, the user stopped the sweep.
func Failures(logf func(format string, args ...any), results []runner.Result) (int, error) {
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

// FailureSummary renders the one-line post-mortem a command prints
// before its non-zero exit, so the failure is diagnosable from
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
