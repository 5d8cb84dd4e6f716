// Observers: the one way code runs between cycles. Everything that acts
// on a machine during a run without being part of it — the invariant
// watchdog, UCP's L1 repartitioning, the scheme controllers' hooks,
// cancellation — is an Observer in Options.Observers, and the cycle loop
// compares the cycle counter with one next-fire cycle to know whether any
// is due.
package gpu

import (
	"errors"
	"fmt"

	"repro/internal/icnt"
	"repro/internal/sm"
)

// Observer is code that runs between cycles. Fn runs when the cycle
// counter reaches At and then every Every cycles (only once when Every
// is not positive); an error from Fn ends the run, and RunCycles returns
// it.
//
// A leg — one RunCycles call — from cycle s to cycle e visits the
// counter's values s, s+1, …, e: s before the leg's first Step, every
// later one after the Step that reaches it. The observers due at one
// value run in list order. An At below s fires at s. Observers keep
// their state in Fn's closure, so build them for the leg that runs them;
// the constructors below take the leg's first cycle for that reason.
type Observer struct {
	At, Every int64
	Fn        func(g *GPU) error
}

// Periodic fires fn at the multiples of every strictly after start, the
// leg's last cycle included: the schedule of the scheme controllers'
// hooks.
func Periodic(start, every int64, fn func(g *GPU) error) Observer {
	return Observer{At: (start/every + 1) * every, Every: every, Fn: fn}
}

// ErrInterrupted is returned (wrapped with the cycle reached) when an
// Interrupt observer stops a run.
var ErrInterrupted = errors.New("gpu: run interrupted")

// interruptEvery is how often an Interrupt observer polls: it bounds
// cancellation latency without a call per cycle.
const interruptEvery = 1024

// Interrupt polls stop at the multiples of 1024 from start up to, not
// including, end — after a leg's last step there is nothing left to stop
// — and ends the run with ErrInterrupted when stop reports true
// (cancellation and per-job timeouts thread through here).
func Interrupt(start, end int64, stop func() bool) Observer {
	return Observer{At: (start + interruptEvery - 1) / interruptEvery * interruptEvery, Every: interruptEvery,
		Fn: func(g *GPU) error {
			if g.cycle < end && stop() {
				return fmt.Errorf("%w at cycle %d of %d", ErrInterrupted, g.cycle, end)
			}
			return nil
		}}
}

// Repartition recomputes every SM's L1D way partition from its UMON (the
// UCP lookahead algorithm, at least one way per kernel) one cycle after
// start and then every `every` cycles. The UMONs exist only on a machine
// built with Options.UCP.
func Repartition(start, every int64) Observer {
	return Observer{At: start + 1, Every: every, Fn: func(g *GPU) error {
		if len(g.descs) < 2 {
			return nil
		}
		for _, s := range g.SMs {
			if u := s.L1.UMONRef(); u != nil {
				s.L1.SetPartition(u.Lookahead(1))
				u.ResetCounters()
			}
		}
		return nil
	}}
}

// DefaultProgressWindow is the watchdog's forward-progress deadline:
// some SM with resident thread blocks must issue at least one
// instruction within this many cycles. Real stalls are bounded by
// DRAM-scale latencies (hundreds of cycles); a window this wide only
// trips on genuine deadlock.
const DefaultProgressWindow = 50_000

// Watchdog asserts the simulator's conservation laws after every cycle
// of the leg that starts at start, with a forward-progress deadline of
// window cycles (DefaultProgressWindow outside tests). Shared-resource
// simulators treat interference accounting as an invariant to be
// checked, not assumed — a leaked in-flight counter or a quota that
// never refreshes does not crash the run, it silently corrupts every
// downstream table. The first violation ends the run with a
// *sm.InvariantError carrying cycle/SM/kernel context, which sweep
// commands attribute to the one grid point and report without aborting
// the rest of the grid.
func Watchdog(start, window int64) Observer {
	w := &watchdog{window: window, lastProgress: start}
	return Observer{At: start + 1, Every: 1, Fn: w.check}
}

// watchdog holds the checker's cross-cycle state.
type watchdog struct {
	window       int64
	lastIssued   uint64
	lastProgress int64
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
		for k := range s.K {
			total += s.K[k].Instrs()
		}
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
