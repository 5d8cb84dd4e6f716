package gcke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpu"
)

// ckptCycles is the length of the checkpoint tests' job: long enough for
// three checkpoint intervals and a dozen Interrupt polls (one per 1024
// cycles), short enough to run in milliseconds.
const ckptCycles = 12_000

// ckptWorkload returns a session with its profile caches already warm,
// a checkpoint-eligible workload (no hooks, UCP or warmup; a stateful
// limiter so policy blobs are part of the state) and the JSON of its
// checkpoint-free result.
func ckptWorkload(t *testing.T) (*Session, []Kernel, Scheme, []byte) {
	t.Helper()
	s := NewSession(ScaledConfig(2), ckptCycles)
	s.ProfileCycles = 4_000
	bp, _ := Benchmark("bp")
	ks, _ := Benchmark("ks")
	wl := []Kernel{bp, ks}
	scheme := Scheme{Partition: PartitionEven, Limiting: LimitStatic, StaticLimits: []int{4, 4}}
	res, err := s.RunWorkload(wl, scheme)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return s, wl, scheme, golden
}

// saveLog is a recording Checkpoint sink. Save runs on a helper
// goroutine, hence the lock.
type saveLog struct {
	mu     sync.Mutex
	cycles []int64
	states map[int64][]byte
}

func (l *saveLog) save(cycle int64, state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.states == nil {
		l.states = make(map[int64][]byte)
	}
	l.cycles = append(l.cycles, cycle)
	l.states[cycle] = state
	return nil
}

func noLatest() (int64, []byte, bool) { return 0, nil, false }

// sameAsGolden fails the test unless res marshals to golden.
func sameAsGolden(t *testing.T, res *WorkloadResult, golden []byte) {
	t.Helper()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, golden) {
		t.Fatal("checkpointed result differs from the checkpoint-free run")
	}
}

// TestCheckpointOnlyWhereResumable pins WHEN a checkpoint is written:
// at every multiple of Every strictly inside the job and nowhere else.
// A resume only ever accepts 0 < cycle < Cycles, so a checkpoint at the
// job's last cycle can never be read — and, left behind by a crash, it
// would shadow the useful one before it.
func TestCheckpointOnlyWhereResumable(t *testing.T) {
	s, wl, scheme, golden := ckptWorkload(t)
	run := func(t *testing.T, ck *Checkpoint) int64 {
		t.Helper()
		res, resumedFrom, err := s.RunWorkloadCheckpointedCtx(context.Background(), wl, scheme, ck)
		if err != nil {
			t.Fatal(err)
		}
		sameAsGolden(t, res, golden)
		return resumedFrom
	}

	var at4000 []byte
	for _, tc := range []struct {
		name  string
		every int64
		want  []int64
	}{
		{"half", 6_000, []int64{6_000}},
		{"third", 4_000, []int64{4_000, 8_000}},
		{"whole", 12_000, nil},
		{"longer-than-job", 20_000, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log saveLog
			if from := run(t, &Checkpoint{Every: tc.every, Latest: noLatest, Save: log.save}); from != 0 {
				t.Fatalf("resumedFrom = %d on a store with no checkpoint", from)
			}
			if !reflect.DeepEqual(log.cycles, tc.want) {
				t.Fatalf("Every=%d: Save called at %v, want %v", tc.every, log.cycles, tc.want)
			}
			if st := log.states[4_000]; st != nil {
				at4000 = st
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		if at4000 == nil {
			t.Fatal("no checkpoint at 4000 recorded by the subtests above")
		}
		var log saveLog
		latest := func() (int64, []byte, bool) { return 4_000, at4000, true }
		if from := run(t, &Checkpoint{Every: 4_000, Latest: latest, Save: log.save}); from != 4_000 {
			t.Fatalf("resumedFrom = %d, want 4000", from)
		}
		if want := []int64{8_000}; !reflect.DeepEqual(log.cycles, want) {
			t.Fatalf("resumed from 4000: Save called at %v, want %v", log.cycles, want)
		}
	})
}

// pollCtx is a context whose Err — the engine's Interrupt poll, made
// once per 1024 simulated cycles — also reports each poll to the test.
// That is how the tests below watch the simulation advance from outside.
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
func newPollCtx(t *testing.T, onPoll func()) (pollCtx, context.CancelFunc) {
	inner, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return pollCtx{inner, onPoll}, cancel
}

// blockedSave is a Checkpoint whose first Save stays in flight until the
// Interrupt poll has seen the cycle counter reach until — a cycle past
// the checkpoint's, so the simulation provably ran on meanwhile — and
// then lingers, so that a second checkpoint coming due, or a run that
// returned without joining it, would find it still running.
type blockedSave struct {
	t     *testing.T
	until int64 // polled cycle the first Save waits for; a multiple of 1024
	fail  error // returned by the first Save

	// Latest is called once, right before the simulation starts; the
	// n-th poll after it is made at cycle (n-1)*1024.
	started atomic.Bool
	polls   int64         // simulating goroutine only
	reached chan struct{} // closed by the poll at cycle until
	entered atomic.Bool   // the first Save is (or was) running

	mu                    sync.Mutex
	cycles                []int64
	inFlight, maxInFlight int
}

const saveLinger = 100 * time.Millisecond

func newBlockedSave(t *testing.T, until int64) *blockedSave {
	return &blockedSave{t: t, until: until, reached: make(chan struct{})}
}

func (b *blockedSave) checkpoint(every int64) *Checkpoint {
	return &Checkpoint{Every: every, Latest: b.latest, Save: b.save}
}

func (b *blockedSave) latest() (int64, []byte, bool) {
	b.started.Store(true)
	return 0, nil, false
}

// poll is the pollCtx callback; only the simulating goroutine calls it.
func (b *blockedSave) poll() {
	if !b.started.Load() {
		return
	}
	if b.polls*1024 == b.until {
		close(b.reached)
	}
	b.polls++
}

func (b *blockedSave) save(cycle int64, state []byte) error {
	b.mu.Lock()
	b.inFlight++
	if b.inFlight > b.maxInFlight {
		b.maxInFlight = b.inFlight
	}
	b.cycles = append(b.cycles, cycle)
	first := len(b.cycles) == 1
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inFlight--
		b.mu.Unlock()
	}()
	if !first {
		return nil
	}
	b.entered.Store(true)
	select {
	case <-b.reached:
	case <-time.After(5 * time.Second):
		// A synchronous save lands here: the simulating goroutine is
		// the one stuck in this call, so no poll can arrive.
		b.t.Error("the simulation did not advance while Save was in flight")
	}
	time.Sleep(saveLinger)
	return b.fail
}

// state reports the cycles saved so far, how many Saves are running now
// and the most that ever ran at once.
func (b *blockedSave) state() (saved []int64, inFlight, maxInFlight int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int64(nil), b.cycles...), b.inFlight, b.maxInFlight
}

// TestCheckpointSaveIsWriteBehind pins WHO writes a checkpoint and what
// the simulating goroutine waits for: Save runs on a helper while the
// simulation continues, at most one Save is in flight, every way out of
// RunWorkloadCheckpointedCtx joins it first, a failed Save ends
// checkpointing without touching the result, and no goroutine survives
// the call.
func TestCheckpointSaveIsWriteBehind(t *testing.T) {
	s, wl, scheme, golden := ckptWorkload(t)

	// The first Save (cycle 4000) stays in flight until the engine has
	// polled at cycle 5120. The second checkpoint comes due at 8000
	// while the first still lingers; it must wait for it rather than
	// start beside it.
	t.Run("simulation-runs-on-one-save-in-flight", func(t *testing.T) {
		noGoroutineLeft(t)
		b := newBlockedSave(t, 5_120)
		ctx, _ := newPollCtx(t, b.poll)
		res, _, err := s.RunWorkloadCheckpointedCtx(ctx, wl, scheme, b.checkpoint(4_000))
		if err != nil {
			t.Fatal(err)
		}
		sameAsGolden(t, res, golden)
		saved, _, most := b.state()
		if want := []int64{4_000, 8_000}; !reflect.DeepEqual(saved, want) {
			t.Fatalf("Save called at %v, want %v", saved, want)
		}
		if most != 1 {
			t.Fatalf("%d Save calls overlapped, want at most 1 in flight", most)
		}
	})

	// The only Save (cycle 8000) is held until the engine's last poll
	// (cycle 11264) and lingers well past the end of the simulation.
	t.Run("result-waits-for-save", func(t *testing.T) {
		noGoroutineLeft(t)
		b := newBlockedSave(t, 11_264)
		ctx, _ := newPollCtx(t, b.poll)
		res, _, err := s.RunWorkloadCheckpointedCtx(ctx, wl, scheme, b.checkpoint(8_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, n, _ := b.state(); n != 0 {
			t.Fatalf("run returned its result with %d Save still in flight", n)
		}
		sameAsGolden(t, res, golden)
	})

	// The job is cancelled while its Save is in flight: the interruption
	// must not be reported before the Save has returned — the runner
	// would otherwise retry, or drop checkpoints, beside a live writer.
	t.Run("cancelled-context-waits-for-save", func(t *testing.T) {
		noGoroutineLeft(t)
		b := newBlockedSave(t, 4_096)
		var cancel context.CancelFunc
		ctx, cancel := newPollCtx(t, func() {
			b.poll()
			if b.entered.Load() {
				cancel()
			}
		})
		_, _, err := s.RunWorkloadCheckpointedCtx(ctx, wl, scheme, b.checkpoint(4_000))
		if !errors.Is(err, gpu.ErrInterrupted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want an interruption caused by context.Canceled", err)
		}
		if _, n, _ := b.state(); n != 0 {
			t.Fatalf("run reported the interruption with %d Save still in flight", n)
		}
	})

	// A panic unwinding through the run (here: out of the Interrupt
	// poll) joins the helper too, so whoever recovers it — the runner
	// does — never races a live Save.
	t.Run("panic-waits-for-save", func(t *testing.T) {
		noGoroutineLeft(t)
		b := newBlockedSave(t, 4_096)
		ctx, _ := newPollCtx(t, func() {
			b.poll()
			if b.entered.Load() {
				panic("poll panicked")
			}
		})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("the poll's panic did not propagate")
				}
				if _, n, _ := b.state(); n != 0 {
					t.Errorf("panic propagated with %d Save still in flight", n)
				}
			}()
			s.RunWorkloadCheckpointedCtx(ctx, wl, scheme, b.checkpoint(4_000))
		}()
	})

	// A failed Save surfaces at the next checkpoint, which is skipped
	// along with all later ones; the result is unaffected.
	t.Run("failed-save-disables-the-rest", func(t *testing.T) {
		noGoroutineLeft(t)
		b := newBlockedSave(t, 2_048)
		b.fail = errors.New("disk full")
		ctx, _ := newPollCtx(t, b.poll)
		res, _, err := s.RunWorkloadCheckpointedCtx(ctx, wl, scheme, b.checkpoint(2_000))
		if err != nil {
			t.Fatal(err)
		}
		sameAsGolden(t, res, golden)
		if saved, _, _ := b.state(); !reflect.DeepEqual(saved, []int64{2_000}) {
			t.Fatalf("Save called at %v after the first one failed, want [2000]", saved)
		}
	})
}
