// The invariant watchdog: an optional per-cycle checker asserting the
// simulator's conservation laws while it runs. Shared-resource
// simulators treat interference accounting as an invariant to be
// checked, not assumed — a leaked in-flight counter or a quota that
// never refreshes does not crash the run, it silently corrupts every
// downstream table. With Options.Check enabled, the first violation
// stops the run with a structured error carrying cycle/SM/kernel
// context, which sweep drivers attribute to the one grid point and
// (under -on-error=skip) report without aborting the rest of the grid.
package gpu

import (
	"errors"
	"fmt"

	"repro/internal/icnt"
	"repro/internal/sm"
)

// ErrInterrupted is returned (wrapped with the cycle reached) when
// Options.Interrupt stops a run before Options.Cycles complete.
var ErrInterrupted = errors.New("gpu: run interrupted")

// interruptInterval is how often RunCycles polls Options.Interrupt; it
// bounds cancellation latency without a per-cycle branch in the hot
// loop's common case.
const interruptInterval = 1024

// DefaultProgressWindow is the forward-progress deadline: with the
// watchdog enabled, some SM with resident thread blocks must issue at
// least one instruction within this many cycles. Real stalls are
// bounded by DRAM-scale latencies (hundreds of cycles); a window this
// wide only trips on genuine deadlock.
const DefaultProgressWindow = 50_000

// CheckConfig configures the invariant watchdog.
type CheckConfig struct {
	Enabled bool
	// ProgressWindow overrides DefaultProgressWindow when positive.
	ProgressWindow int64
}

// watchdog holds the checker's cross-cycle state.
type watchdog struct {
	window       int64
	lastIssued   uint64
	lastProgress int64
}

func newWatchdog(cfg CheckConfig, start int64) *watchdog {
	w := &watchdog{window: cfg.ProgressWindow, lastProgress: start}
	if w.window <= 0 {
		w.window = DefaultProgressWindow
	}
	return w
}

// check runs every invariant once for the cycle just executed.
func (w *watchdog) check(g *GPU) error {
	c := g.cycle
	for _, s := range g.SMs {
		if err := s.CheckInvariants(c); err != nil {
			return err
		}
	}
	for p, part := range g.parts {
		if got := part.l2.MSHRInUse(); got < 0 || got > g.cfg.L2.MSHRs {
			return &sm.InvariantError{Cycle: c, SM: -1, Kernel: -1, Rule: "l2-mshr-occupancy",
				Detail: fmt.Sprintf("partition %d: MSHRs in use %d outside [0,%d]", p, got, g.cfg.L2.MSHRs)}
		}
		if got := part.l2.MissQueueLen(); got > g.cfg.L2.MissQueue {
			return &sm.InvariantError{Cycle: c, SM: -1, Kernel: -1, Rule: "l2-missq-occupancy",
				Detail: fmt.Sprintf("partition %d: miss queue holds %d entries, capacity %d", p, got, g.cfg.L2.MissQueue)}
		}
		if err := part.l2.CheckIndex(); err != nil {
			return &sm.InvariantError{Cycle: c, SM: -1, Kernel: -1, Rule: "cache-index",
				Detail: fmt.Sprintf("partition %d L2: %v", p, err)}
		}
	}

	for _, x := range [...]struct {
		name string
		net  *icnt.Network
	}{{"request", g.reqNet}, {"response", g.respNet}} {
		if err := x.net.CheckIndex(); err != nil {
			return &sm.InvariantError{Cycle: c, SM: -1, Kernel: -1, Rule: "icnt-head-index",
				Detail: fmt.Sprintf("%s network: %v", x.name, err)}
		}
	}

	// Forward progress: while any SM holds resident thread blocks, the
	// machine-wide issued-instruction count must advance within the
	// window; otherwise the machine is deadlocked (e.g. a limiter or
	// issue gate that never reopens).
	var total uint64
	resident := false
	for _, s := range g.SMs {
		total += s.IssuedTotal()
		if s.ResidentTBs() {
			resident = true
		}
	}
	if total != w.lastIssued || !resident {
		w.lastIssued = total
		w.lastProgress = c
	} else if c-w.lastProgress >= w.window {
		return &sm.InvariantError{Cycle: c, SM: -1, Kernel: -1, Rule: "no-progress",
			Detail: fmt.Sprintf("no instruction issued for %d cycles with thread blocks resident", c-w.lastProgress)}
	}
	return nil
}
