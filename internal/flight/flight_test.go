package flight

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flight/flighttest"
)

func TestDoDeduplicatesConcurrentCalls(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	release := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Hold the leader inside fn until every other goroutine has joined
	// its flight, so all of them must share the one execution. Waiting
	// only for the first call to start is not enough: on a multi-core
	// host the leader can finish and forget the key before the last
	// goroutines reach Do, and they then rightly run fn again.
	flighttest.AwaitWaitersInDo(n - 1)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
}

func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	var calls atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := g.Do(i, func() (int, error) {
				calls.Add(1)
				return i * i, nil
			})
			if v != i*i {
				t.Errorf("key %d got %d", i, v)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
}

func TestDoPropagatesErrorToAllWaiters(t *testing.T) {
	var g Group[string, int]
	wantErr := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, wantErr
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Do("k", func() (int, error) { return 0, wantErr })
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Fatalf("waiter %d got %v, want %v", i, err, wantErr)
		}
	}
}

func TestDoForgetsCompletedKeys(t *testing.T) {
	var g Group[string, int]
	var calls int
	for i := 0; i < 3; i++ {
		v, err := g.Do("k", func() (int, error) {
			calls++
			return calls, nil
		})
		if err != nil || v != i+1 {
			t.Fatalf("call %d: v=%d err=%v", i, v, err)
		}
	}
	if calls != 3 {
		t.Fatalf("sequential calls must each run fn, got %d", calls)
	}
}

// TestTryDoReturnsWhenBusy: a key another goroutine is running is not
// waited for and its fn is not called.
func TestTryDoReturnsWhenBusy(t *testing.T) {
	var g Group[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	v, ran, err := g.TryDo("k", func() (int, error) {
		t.Error("fn ran for a key that is in flight")
		return 2, nil
	})
	if ran || v != 0 || err != nil {
		t.Fatalf("TryDo on a busy key = (%d, %v, %v), want (0, false, nil)", v, ran, err)
	}
	close(release)
	<-done
}

// TestTryDoRunsWhenFree: a free key runs fn, returns its result and error
// and is forgotten afterwards.
func TestTryDoRunsWhenFree(t *testing.T) {
	var g Group[string, int]
	wantErr := errors.New("boom")
	for i, want := range []error{nil, wantErr, nil} {
		v, ran, err := g.TryDo("k", func() (int, error) { return i + 1, want })
		if !ran || v != i+1 || err != want {
			t.Fatalf("call %d: TryDo = (%d, %v, %v), want (%d, true, %v)", i, v, ran, err, i+1, want)
		}
	}
}

// TestTryDoSharesResultWithDoWaiters: Do callers that arrive while a
// TryDo leader runs share its one execution.
func TestTryDoSharesResultWithDoWaiters(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	const waiters = 4
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, ran, err := g.TryDo("k", fn); !ran || v != 42 || err != nil {
			t.Errorf("leader: TryDo = (%d, %v, %v), want (42, true, nil)", v, ran, err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := g.Do("k", fn); v != 42 || err != nil {
				t.Errorf("waiter: Do = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	flighttest.AwaitWaitersInDo(waiters)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
}

// TestLeaderPanicReleasesWaitersAndKey: a panic in fn must not strand the
// key. The waiters get an error naming the panic, the panic continues in
// the leader, and a later call runs afresh. Before the cleanup moved into
// a defer the waiters (and every later caller) blocked forever, hence the
// timeout.
func TestLeaderPanicReleasesWaitersAndKey(t *testing.T) {
	for _, leadWith := range []string{"Do", "TryDo"} {
		t.Run(leadWith, func(t *testing.T) {
			var g Group[string, int]
			started, release := make(chan struct{}), make(chan struct{})
			fn := func() (int, error) {
				close(started)
				<-release
				panic("kaboom")
			}
			leaderPanic := make(chan any, 1)
			go func() {
				defer func() { leaderPanic <- recover() }()
				if leadWith == "Do" {
					g.Do("k", fn)
				} else {
					g.TryDo("k", fn)
				}
			}()
			<-started

			const waiters = 3
			errs := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					_, err := g.Do("k", func() (int, error) { return 7, nil })
					errs <- err
				}()
			}
			flighttest.AwaitWaitersInDo(waiters)
			close(release)

			timeout := time.After(10 * time.Second)
			for i := 0; i < waiters; i++ {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), "kaboom") {
						t.Fatalf("waiter error = %v, want one naming the panic", err)
					}
				case <-timeout:
					t.Fatal("waiters still blocked 10 s after the leader panicked")
				}
			}
			select {
			case p := <-leaderPanic:
				if fmt.Sprint(p) != "kaboom" {
					t.Fatalf("leader recovered %v, want the original panic", p)
				}
			case <-timeout:
				t.Fatal("leader did not unwind")
			}
			if v, err := g.Do("k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
				t.Fatalf("Do after the panic = (%d, %v), want (7, nil): key stranded", v, err)
			}
		})
	}
}
