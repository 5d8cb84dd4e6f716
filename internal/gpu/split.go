// The split cycle. A machine wide enough to pay for it ticks the upper
// two thirds of its SMs on a helper goroutine while the caller runs the
// memory side of the previous cycle — request-network tick, the
// partitions, response-network tick — and then ticks the lower third.
// The two sides meet once per cycle at a join, where the caller commits
// the response network's pops and grants, returns the stores retired at
// the L2s to the helper's pool and drains the SMs' outbound queues; the
// memory side of the cycle just joined stays pending until the next
// cycle's SM phase, or until a flush (before every observer, before a
// serial cycle, at the end of RunCycles). The SMs of one cycle are
// independent of one another — an SM pops only its own response-network
// destination, appends only to its own trace shard, consults only its
// own policy instances and draws from its side's pool — and of the
// memory side of the cycle before, which touches nothing an SM does
// until the join commits it (see GPU.step). So which goroutine ticks
// what moves no byte of any result, trace or checkpoint.
//
// The two goroutines meet at a barrier of counters on cache lines of
// their own. The caller publishes cycle+1, runs the memory side and
// ticks the lower third. The upper SMs go to whichever side claims them
// first: the helper as soon as it sees the publication, or the caller
// once its own work is done, so a helper that is late — parked, or off
// its core — costs the cycle nothing. A helper that claimed them
// acknowledges with cycle+1, and only then does the caller wait. Each
// side spins on the other's counter before it parks on a channel, so a
// cycle costs no futex wake while both are on a core and no core while
// one waits long (in a slow observer).
//
// The helper is a guest on the core it uses. RunCycles starts it only
// while nothing else in the process steps a machine, and releases it at
// the first cycle another machine steps (a runner pool, a server slot, a
// Session's claim helpers get their cores first) or when two windows of
// cycles in a row show it is not getting a core (another process, go
// test -p): the caller ticked the upper SMs itself in three quarters of
// a window's cycles, or waited for the helper past its spin budget for a
// quarter of its wall time. A machine without a helper looks again every
// firstRetry cycles, twice as long after each starved release.
package gpu

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// splitMinSMs is the least SM count whose cycle runs split. Below it
// the barrier and the cache lines the two sides trade cost about what
// the helper saves: on a 2-core host, with the SM phase alone split in
// halves, the median lone-job wall-time ratio at 12 SMs read 1.16, 0.99
// and 0.93 in three sets of pairs, and at 16 SMs 1.21, 1.05 and 1.03
// (results/engine-split.md).
const splitMinSMs = 16

// splitAt returns the first SM the helper ticks on a machine of n SMs.
// The caller's side of a cycle is the memory side plus SMs [0, n/3).
// On the 2-core reference host, lone 16-SM jobs on C+M and M+M pairs
// still wait on the caller's side with 5 SMs on it, yet read no faster
// with 3, 4 or 6: the SMs the helper ticks cost more each than the
// caller's, since their requests and responses cross cores
// (results/engine-split.md).
func splitAt(n int) int { return n / 3 }

// stepping counts the machines inside RunCycles in this process. A
// machine splits only while it is the only one.
var stepping atomic.Int32

// Spin budgets: how long a side waits on a core before it parks. Waking
// a parked goroutine costs tens of microseconds, several cycles of a
// 16-SM machine. The helper waits out the caller's join every cycle,
// and an observer's flush; the caller waits only for SMs the helper has
// claimed, so a wait of its longer than that means the helper has lost
// its core.
const (
	callerSpin = 100 * time.Microsecond
	helperSpin = time.Millisecond
)

// starveWindow is the number of cycles over which the caller counts the
// cycles whose upper SMs it ticked itself and its parked waits.
const starveWindow = 256

// quit is the published value that ends the helper.
const quit = math.MaxInt64

// counter is an atomic counter alone on its cache lines (and their
// adjacent-line prefetch pair), so the side that spins on it does not
// steal a line the other side writes.
type counter struct {
	atomic.Int64
	_ [120]byte
}

// sleeper is one side's way to park at the barrier: asleep is raised
// before the last look at the counter, and the side that advances the
// counter sends a wake to whoever it finds asleep.
type sleeper struct {
	asleep atomic.Bool
	wake   chan struct{}
}

// await returns the first value of x at or above want, and, when the
// wait outlasted spin, how long it took (zero when spinning sufficed).
// The clock is read only once the wait has outlasted a thousand loads.
func (s *sleeper) await(x *atomic.Int64, want int64, spin time.Duration) (int64, time.Duration) {
	var t0 time.Time
	for i := 1; ; i++ {
		if v := x.Load(); v >= want {
			return v, 0
		}
		if i%1024 != 0 {
			continue
		}
		if t0.IsZero() {
			t0 = time.Now()
		} else if time.Since(t0) > spin {
			break
		}
	}
	s.asleep.Store(true)
	if v := x.Load(); v >= want && s.asleep.CompareAndSwap(true, false) {
		return v, time.Since(t0) // withdrawn before the other side looked: no wake comes
	}
	<-s.wake
	return x.Load(), time.Since(t0)
}

// rouse wakes s if it is parked (or about to park) on a counter the
// caller has just advanced.
func (s *sleeper) rouse() {
	if s.asleep.Load() && s.asleep.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// helper is the second goroutine of one RunCycles call, and the state
// the caller keeps about it.
type helper struct {
	g  *GPU
	lo int // the helper's SMs are [lo, len(g.SMs))

	pub   counter // caller: cycle+1 once the cycle's SM phase may start, or quit
	claim counter // cycle+1 once one side has claimed the cycle's upper SMs
	ack   counter // helper: cycle+1 once it has ticked upper SMs it claimed

	callerSleep, helperSleep sleeper

	exited   chan struct{} // closed when the goroutine returns
	panicked any           // the helper's panic, set before its last ack
	stopped  bool          // caller: the goroutine has been told to end

	// Starvation accounting, caller only: per window, the cycles whose
	// upper SMs the caller ticked itself and the time of its waits that
	// outlasted its spin budget; starved counts the windows in a row
	// where either reached its bound.
	windowStart time.Time
	windowLeft  int
	taken       int
	parked      time.Duration
	starved     int
}

// splitter decides, cycle by cycle of one RunCycles call, whether the
// SM phase runs split, and owns the helper while it does.
type splitter struct {
	g *GPU
	h *helper
	// next is the cycle at which a machine without a helper looks again
	// whether it may start one, retry the distance to the following
	// look. retry doubles whenever a helper is found starved.
	next, retry int64
}

// splitter returns the SM phase's splitter for a run of g. A run never
// splits when the machine has one pool (twoPools), a policy instance is
// shared across SMs or the process has one P; otherwise its first cycle
// looks whether another machine is stepping.
func (g *GPU) splitter() splitter {
	sp := splitter{g: g, next: math.MaxInt64, retry: firstRetry}
	if g.twoPools() && !g.sharedPolicy && runtime.GOMAXPROCS(0) >= 2 {
		sp.next = g.cycle
	}
	return sp
}

// firstRetry is the number of cycles a machine whose helper was released
// runs serial before it looks again; a helper found starved doubles it,
// so a host that stays busy costs a run a few windows of its cycles.
const firstRetry = 16 * starveWindow

// helper returns the helper for the cycle about to run, or nil when it
// runs serial. A helper is released at the first cycle another machine
// steps, or when keep finds it starved.
func (sp *splitter) helper() *helper {
	c := sp.g.cycle
	if h := sp.h; h != nil {
		company := stepping.Load() > 1
		if !company && h.keep() {
			return h
		}
		if !company {
			sp.retry *= 2
		}
		h.stop()
		sp.h, sp.next = nil, c+sp.retry
		return nil
	}
	if c < sp.next {
		return nil
	}
	sp.next = c + sp.retry
	if stepping.Load() == 1 {
		sp.h = sp.g.startHelper()
	}
	return sp.h
}

// stop ends the helper, if one runs.
func (sp *splitter) stop() { sp.h.stop() }

// startHelper starts the goroutine that ticks the upper SMs of g from
// the current cycle on.
func (g *GPU) startHelper() *helper {
	c := g.cycle
	h := &helper{
		g:           g,
		lo:          splitAt(len(g.SMs)),
		callerSleep: sleeper{wake: make(chan struct{}, 1)},
		helperSleep: sleeper{wake: make(chan struct{}, 1)},
		exited:      make(chan struct{}),
		windowStart: time.Now(),
		windowLeft:  starveWindow,
	}
	h.pub.Store(c)
	h.claim.Store(c)
	h.ack.Store(c)
	go h.run(c)
	return h
}

// twoPools reports whether the upper SMs of g (from splitAt on) draw
// from hpool, the condition of any split. It depends on the machine's
// configuration alone, so a machine allocates and recycles the same
// objects whether or not a run of it splits. A write-through L2 would
// forward the upper SMs' stores to DRAM, which releases them into the
// caller's pool, and with no crossbar latency a grant of the response
// network's tick is poppable by the next cycle's SMs (see GPU.step), so
// neither machine splits.
func (g *GPU) twoPools() bool {
	return len(g.SMs) >= splitMinSMs && g.cfg.L2.WriteBack && g.cfg.Icnt.Latency >= 1
}

// run is the helper goroutine: claim the upper SMs of each published
// cycle, tick and acknowledge them, until quit. A panic is acknowledged
// with the cycle it broke and re-raised by the caller.
func (h *helper) run(start int64) {
	var c int64 // the cycle being ticked
	defer close(h.exited)
	defer func() {
		if r := recover(); r != nil {
			h.panicked = r
			h.ack.Store(c + 1)
			h.callerSleep.rouse()
		}
	}()
	g := h.g
	for next := start + 1; ; {
		v, _ := h.helperSleep.await(&h.pub.Int64, next, helperSpin)
		if v == quit {
			return
		}
		c, next = v-1, v+1
		if !h.claim.CompareAndSwap(c, v) {
			continue // the caller ticked it
		}
		g.tickSMs(h.lo, len(g.SMs), c)
		h.ack.Store(v)
		h.callerSleep.rouse()
	}
}

// publish lets the helper claim the upper SMs of cycle c.
func (h *helper) publish(c int64) {
	h.pub.Store(c + 1)
	h.helperSleep.rouse()
}

// tick finishes the SM phase of cycle c once it is published: tick the
// lower SMs, then the upper SMs too if the helper has not claimed them,
// or wait for the helper's acknowledgement. A panic of the helper's is
// raised here, on the caller's goroutine, where the runner's and the
// Session's recovery see it.
func (h *helper) tick(c int64) {
	g := h.g
	g.tickSMs(0, h.lo, c)
	if h.claim.CompareAndSwap(c, c+1) {
		g.tickSMs(h.lo, len(g.SMs), c)
		h.taken++
		return
	}
	_, slept := h.callerSleep.await(&h.ack.Int64, c+1, callerSpin)
	h.parked += slept
	if h.panicked != nil {
		h.stopped = true
		<-h.exited
		panic(h.panicked)
	}
}

// keep reports whether the helper should stay for the next cycle: the
// two windows that ended last do not both show it starved of a core.
// One such window is no verdict: a process's second core may take a
// while to come up, and a hypervisor takes it away for milliseconds at
// a time.
func (h *helper) keep() bool {
	if h.windowLeft--; h.windowLeft > 0 {
		return true
	}
	now := time.Now()
	if 4*h.taken > 3*starveWindow || 4*h.parked > now.Sub(h.windowStart) {
		h.starved++
	} else {
		h.starved = 0
	}
	h.windowStart, h.windowLeft, h.taken, h.parked = now, starveWindow, 0, 0
	return h.starved < 2
}

// stop ends the helper and waits for its goroutine to return. It is
// idempotent and accepts a nil helper. While the helper ticks a cycle
// (stop on the way out of a panic of the caller's own SMs) it waits
// for that cycle first.
func (h *helper) stop() {
	if h == nil || h.stopped {
		return
	}
	h.stopped = true
	h.pub.Store(quit)
	h.helperSleep.rouse()
	<-h.exited
}
