package gcke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
)

// goid names the calling goroutine ("17"), so that onProfile can tell
// which goroutine simulates which point.
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return string(bytes.Fields(buf[:n])[1])
}

// atGOMAXPROCS sets GOMAXPROCS for the rest of the test. More Ps than
// the host has cores is fine: helpers are goroutines, the count only
// decides how many are started.
func atGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// noGoroutineLeft fails the test if more goroutines exist when it ends
// than when it started. A claim pass joins its helpers with a WaitGroup,
// so a helper may still be a few instructions from exiting when the call
// returns: give it a moment, not forever.
func noGoroutineLeft(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before, %d after", before, after)
		}
	})
}

// pollCtx is a context whose Err — the engine's Interrupt poll, made
// once per 1024 simulated cycles — also reports each poll to the test.
type pollCtx struct {
	context.Context
	onPoll func()
}

func (c pollCtx) Err() error {
	c.onPoll()
	return c.Context.Err()
}

// newPollCtx wraps a cancellable context: the engine does not poll one
// that can never be cancelled (context.Background).
func newPollCtx(t *testing.T, onPoll func()) pollCtx {
	inner, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return pollCtx{inner, onPoll}
}

// profileWaiters counts the goroutines parked in Session.profile on a
// point another goroutine is simulating. A goroutine only parks there
// after it has found the point's entry, so once it is counted it is
// certain to share that entry's outcome.
func profileWaiters() int {
	recs := make([]runtime.StackRecord, 64)
	n, ok := runtime.GoroutineProfile(recs)
	for !ok {
		recs = make([]runtime.StackRecord, 2*n)
		n, ok = runtime.GoroutineProfile(recs)
	}
	waiters := 0
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				// The first frame outside the runtime is what the
				// goroutine is blocked in.
				if strings.HasSuffix(f.Function, ".(*Session).profile") {
					waiters++
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return waiters
}

// awaitProfileWaiters returns once at least n goroutines wait in
// Session.profile. It sleeps between polls: a goroutine profile stops
// the world, and the goroutines being waited for may have simulations to
// run first.
func awaitProfileWaiters(n int) {
	for profileWaiters() < n {
		time.Sleep(200 * time.Microsecond)
	}
}

// profileLog records, through onProfile, which goroutine simulated which
// profile point.
type profileLog struct {
	mu        sync.Mutex
	runs      map[string]int  // "kernel|tbs" -> simulations
	on        map[string]bool // goroutines that simulated a point
	order     []string        // points in the order they were started
	mostAlive int             // highest runtime.NumGoroutine seen from a simulating goroutine
}

func (l *profileLog) record(kernel string, tbs int) (first bool, goroutines int) {
	id, alive := goid(), runtime.NumGoroutine()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.runs == nil {
		l.runs, l.on = map[string]int{}, map[string]bool{}
	}
	key := fmt.Sprintf("%s|%d", kernel, tbs)
	l.runs[key]++
	l.order = append(l.order, key)
	l.on[id] = true
	l.mostAlive = max(l.mostAlive, alive)
	return len(l.order) == 1, len(l.on)
}

// checkOncePerPoint: every (kernel, TBs) point of wl's curves simulated
// exactly once and nothing else.
func (l *profileLog) checkOncePerPoint(t *testing.T, s *Session, wl []Kernel) {
	t.Helper()
	cfg := s.Config()
	points := 0
	for i := range wl {
		for n := 1; n <= wl[i].MaxTBsPerSM(&cfg); n++ {
			points++
			if key := fmt.Sprintf("%s|%d", wl[i].Name, n); l.runs[key] != 1 {
				t.Errorf("point %s simulated %d times, want 1", key, l.runs[key])
			}
		}
	}
	if len(l.runs) != points {
		t.Errorf("%d distinct profile points simulated, want %d", len(l.runs), points)
	}
}

// resultAndProfiles is what a job leaves behind: the marshalled result
// and a dump of every point of the session's profile table — kernel, TBs
// per SM, series, IPC and the point's result JSON — in key order.
func resultAndProfiles(t *testing.T, s *Session, res *WorkloadResult) (result, profiles []byte) {
	t.Helper()
	result, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var rows []string
	for k, e := range s.profiles {
		if !e.settled() {
			t.Fatalf("%s at %d TBs per SM still in flight", k.d.Name, k.tbs)
		}
		r, err := json.Marshal(e.r)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, fmt.Sprintf("%s %d %t %v %s\n", k.d.Name, k.tbs, k.series, e.r.Kernels[0].IPC, r))
	}
	sort.Strings(rows)
	return result, []byte(strings.Join(rows, ""))
}

// The lone job: the pair and scheme of the bench's serve-mixed requests.
var loneScheme = Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitStatic, StaticLimits: []int{4, 4}}

func loneWorkload(t *testing.T) []Kernel {
	t.Helper()
	var wl []Kernel
	for _, name := range []string{"bp", "ks"} {
		k, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		wl = append(wl, k)
	}
	return wl
}

// TestLoneJobProfilesOnIdleCores pins the helper claimers: a caller with
// no pool beside it profiles on up to GOMAXPROCS goroutines, every point
// is still simulated exactly once, and what the job returns and what the
// session's profile table holds are byte-identical to a one-core run's.
func TestLoneJobProfilesOnIdleCores(t *testing.T) {
	wl := loneWorkload(t)

	atGOMAXPROCS(t, 1)
	serial := shortSession()
	var serialLog profileLog
	serial.onProfile = func(ctx context.Context, kernel string, tbs int) { serialLog.record(kernel, tbs) }
	res, err := serial.RunWorkload(wl, loneScheme)
	if err != nil {
		t.Fatal(err)
	}
	wantResult, wantProfiles := resultAndProfiles(t, serial, res)
	serialLog.checkOncePerPoint(t, serial, wl)
	if len(serialLog.on) != 1 {
		t.Errorf("GOMAXPROCS=1: profiled on %d goroutines, want 1", len(serialLog.on))
	}
	// Costliest first: the full-occupancy runs, then curve points by
	// descending TB count, so the pass ends on the shortest simulation.
	cfg := serial.Config()
	var wantOrder []string
	for i := range wl {
		wantOrder = append(wantOrder, fmt.Sprintf("%s|%d", wl[i].Name, wl[i].MaxTBsPerSM(&cfg)))
	}
	for n := max(wl[0].MaxTBsPerSM(&cfg), wl[1].MaxTBsPerSM(&cfg)) - 1; n >= 1; n-- {
		for i := range wl {
			if n < wl[i].MaxTBsPerSM(&cfg) {
				wantOrder = append(wantOrder, fmt.Sprintf("%s|%d", wl[i].Name, n))
			}
		}
	}
	if got := strings.Join(serialLog.order, " "); got != strings.Join(wantOrder, " ") {
		t.Errorf("claim order %s, want %s", got, strings.Join(wantOrder, " "))
	}

	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			atGOMAXPROCS(t, procs)
			noGoroutineLeft(t)
			s := shortSession()
			var log profileLog
			joined := make(chan struct{}) // closed once a second goroutine simulates
			var once sync.Once
			s.onProfile = func(ctx context.Context, kernel string, tbs int) {
				first, goroutines := log.record(kernel, tbs)
				if goroutines > 1 {
					once.Do(func() { close(joined) })
				}
				// Whoever takes the first point holds it until somebody
				// else takes another, so the test cannot pass by the
				// caller being quick; without helpers nobody comes, and
				// the timeout turns the hang into the failure below.
				if first {
					select {
					case <-joined:
					case <-time.After(10 * time.Second):
					}
				}
			}
			res, err := s.RunWorkload(wl, loneScheme)
			if err != nil {
				t.Fatal(err)
			}
			log.checkOncePerPoint(t, s, wl)
			if n := len(log.on); n < 2 || n > procs {
				t.Errorf("profiled on %d goroutines, want 2..%d", n, procs)
			}
			gotResult, gotProfiles := resultAndProfiles(t, s, res)
			if !bytes.Equal(gotResult, wantResult) {
				t.Error("result differs from the GOMAXPROCS=1 run's")
			}
			if !bytes.Equal(gotProfiles, wantProfiles) {
				t.Error("profile table differs from the GOMAXPROCS=1 run's")
			}

			// Curve alone goes through the same plane.
			c := shortSession()
			var curveLog profileLog
			c.onProfile = func(ctx context.Context, kernel string, tbs int) { curveLog.record(kernel, tbs) }
			curve, err := c.Curve(wl[0])
			if err != nil {
				t.Fatal(err)
			}
			curveLog.checkOncePerPoint(t, c, wl[:1])
			want, err := serial.Curve(wl[0])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(curve) != fmt.Sprint(want) {
				t.Errorf("Curve = %v, want %v", curve, want)
			}
			if last := curveLog.order[len(curveLog.order)-1]; last == fmt.Sprintf("%s|%d", wl[0].Name, wl[0].MaxTBsPerSM(&cfg)) {
				t.Errorf("Curve simulated the full-occupancy point %s last: it did not claim before it waited", last)
			}
		})
	}
}

// TestBusyPoolStartsNoHelpers pins the budget: a claim pass starts no
// goroutine when the process has one P, when the other Ps already carry
// a simulation each (of any session), or when nothing is left to claim.
func TestBusyPoolStartsNoHelpers(t *testing.T) {
	wl := loneWorkload(t)

	// claimAlone runs the job on a fresh session and fails if any point
	// was simulated off the calling goroutine or a goroutine appeared
	// while the pass ran.
	claimAlone := func(t *testing.T) *Session {
		t.Helper()
		s := shortSession()
		var log profileLog
		s.onProfile = func(ctx context.Context, kernel string, tbs int) { log.record(kernel, tbs) }
		self, before := goid(), runtime.NumGoroutine()
		if _, err := s.RunWorkload(wl, loneScheme); err != nil {
			t.Fatal(err)
		}
		log.checkOncePerPoint(t, s, wl)
		if len(log.on) != 1 || !log.on[self] {
			t.Errorf("profiled on goroutines %v, want the caller's (%s) only", log.on, self)
		}
		if log.mostAlive > before {
			t.Errorf("%d goroutines before the claim pass, %d during", before, log.mostAlive)
		}
		return s
	}

	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		atGOMAXPROCS(t, 1)
		claimAlone(t)
	})

	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d/evaluations-in-flight", procs), func(t *testing.T) {
			atGOMAXPROCS(t, procs)
			noGoroutineLeft(t)
			// Park procs-1 evaluations of another session at their first
			// interrupt poll: with the caller itself that is one
			// simulation per P. The session is warm, so the poll is the
			// evaluation's, made once it counts as in flight.
			busy := shortSession()
			even := Scheme{Partition: PartitionEven}
			if _, err := busy.RunWorkload(wl, even); err != nil {
				t.Fatal(err)
			}
			parked, release := make(chan struct{}), make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < procs-1; i++ {
				var once sync.Once
				ctx := newPollCtx(t, func() {
					once.Do(func() {
						parked <- struct{}{}
						<-release
					})
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := busy.RunWorkloadCtx(ctx, wl, even); err != nil {
						t.Errorf("parked evaluation: %v", err)
					}
				}()
			}
			for i := 0; i < procs-1; i++ {
				<-parked
			}
			claimAlone(t)
			close(release)
			wg.Wait()
		})
	}

	t.Run("all-cached", func(t *testing.T) {
		atGOMAXPROCS(t, 4)
		s := profiledSession(t, wl)
		calls := 0
		s.onProfile = func(ctx context.Context, kernel string, tbs int) { calls++ }
		before := runtime.NumGoroutine()
		if err := s.claimProfiles(context.Background(), wl, true); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); calls != 0 || after > before {
			t.Errorf("claim pass over a warm session simulated %d points, goroutines %d -> %d", calls, before, after)
		}
	})
}

// profiledSession returns a session that has run the lone job on one P.
func profiledSession(t *testing.T, wl []Kernel) *Session {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	s := shortSession()
	if _, err := s.RunWorkload(wl, loneScheme); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoneJobCancellation: cancelling the caller's ctx stops the
// leader and every helper, nothing interrupted is cached, and a second
// caller whose ctx is live — parked on the very points being abandoned —
// completes with the result a quiet session returns.
func TestLoneJobCancellation(t *testing.T) {
	wl := loneWorkload(t)
	ref, err := profiledSession(t, wl).RunWorkload(wl, loneScheme)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	atGOMAXPROCS(t, 4)
	noGoroutineLeft(t)
	s := shortSession()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	held := map[string]bool{} // goroutines of the cancelled caller holding a point
	both := make(chan struct{})
	s.onProfile = func(pctx context.Context, kernel string, tbs int) {
		if pctx != ctx {
			return
		}
		mu.Lock()
		held[goid()] = true
		if len(held) == 2 {
			close(both)
		}
		mu.Unlock()
		<-ctx.Done()
	}
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.RunWorkloadCtx(ctx, wl, loneScheme)
		cancelled <- err
	}()
	<-both // the leader and at least one helper each hold a point

	type outcome struct {
		res *WorkloadResult
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := s.RunWorkloadCtx(context.Background(), wl, loneScheme)
		second <- outcome{res, err}
	}()
	awaitProfileWaiters(1)

	cancel()
	err = <-cancelled
	if !errors.Is(err, context.Canceled) || !errors.Is(err, gpu.ErrInterrupted) {
		t.Fatalf("cancelled caller: err = %v, want gpu.ErrInterrupted and context.Canceled in chain", err)
	}
	out := <-second
	if out.err != nil {
		t.Fatalf("caller with a live ctx: %v", out.err)
	}
	got, err := json.Marshal(out.res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("result after the cancellation differs from a quiet session's")
	}
}

// TestLoneJobCancelCachesNothing: a lone cancelled claim pass leaves
// the profile table empty.
func TestLoneJobCancelCachesNothing(t *testing.T) {
	wl := loneWorkload(t)
	atGOMAXPROCS(t, 4)
	noGoroutineLeft(t)
	s := shortSession()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log profileLog
	s.onProfile = func(pctx context.Context, kernel string, tbs int) {
		if _, goroutines := log.record(kernel, tbs); goroutines == 2 {
			cancel()
		}
		<-pctx.Done()
	}
	if _, err := s.RunWorkloadCtx(ctx, wl, loneScheme); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if n := tableLen(s); n != 0 {
		t.Errorf("cancelled claim pass left %d profile points in the table", n)
	}
	// Each of at most GOMAXPROCS participants gets as far as one point.
	if len(log.runs) > 4 {
		t.Errorf("%d points were started by at most 4 goroutines; the pass did not stop at the cancellation", len(log.runs))
	}
}

// TestLoneJobHelperPanicBecomesError: a panic on a helper goroutine —
// which the runner's per-job recover does not cover — comes back as the
// claim pass's error, a caller waiting for the helper's point is
// released, and the session still works.
func TestLoneJobHelperPanicBecomesError(t *testing.T) {
	wl := loneWorkload(t)
	atGOMAXPROCS(t, 4)
	noGoroutineLeft(t)
	s := shortSession()
	self := goid()
	type point struct {
		kernel string
		tbs    int
	}
	doomed := make(chan point, 1)
	var once sync.Once
	s.onProfile = func(ctx context.Context, kernel string, tbs int) {
		if goid() == self {
			return
		}
		// The first point a helper takes: wait until another caller is
		// parked on it, then panic.
		once.Do(func() {
			doomed <- point{kernel, tbs}
			awaitProfileWaiters(1)
			panic("injected on a helper")
		})
	}

	waiter := make(chan error, 1)
	go func() {
		p := <-doomed
		k, _ := Benchmark(p.kernel)
		_, err := s.IsolatedIPCCtx(context.Background(), k, p.tbs)
		waiter <- err
	}()
	_, err := s.RunWorkload(wl, loneScheme)
	if err == nil || !strings.Contains(err.Error(), "injected on a helper") {
		t.Fatalf("err = %v, want the helper's panic", err)
	}
	if werr := <-waiter; werr == nil || !strings.Contains(werr.Error(), "panicked") {
		t.Fatalf("waiter on the helper's point: err = %v, want the panic reported", werr)
	}
	s.onProfile = nil
	if _, err := s.RunWorkload(wl, loneScheme); err != nil {
		t.Fatalf("run after the panic: %v", err)
	}
}
