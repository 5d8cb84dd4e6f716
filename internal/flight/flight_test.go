package flight

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
	for waitersInDo() < n-1 {
		runtime.Gosched()
	}
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

// waitersInDo counts the goroutines inside Do that wait on an in-flight
// call. A goroutine only calls WaitGroup.Wait there after it has looked
// the call up, so once it is counted it is certain to share the result.
func waitersInDo() int {
	recs := make([]runtime.StackRecord, 64)
	n, ok := runtime.GoroutineProfile(recs)
	for !ok {
		recs = make([]runtime.StackRecord, 2*n)
		n, ok = runtime.GoroutineProfile(recs)
	}
	waiters := 0
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		inWait := false
		for {
			f, more := frames.Next()
			if f.Function == "sync.(*WaitGroup).Wait" {
				inWait = true
			} else if inWait && strings.Contains(f.Function, "flight.(*Group") {
				waiters++
				break
			}
			if !more {
				break
			}
		}
	}
	return waiters
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
