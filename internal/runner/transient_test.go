package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	gcke "repro"
	"repro/internal/chaos"
	"repro/internal/gpu"
	"repro/internal/resultcache"
	"repro/internal/sm"
)

func TestIsTransient(t *testing.T) {
	timeoutErr := fmt.Errorf("%w (%w)",
		fmt.Errorf("%w at cycle 4096 of 50000", gpu.ErrInterrupted), context.DeadlineExceeded)
	cancelErr := fmt.Errorf("%w (%w)",
		fmt.Errorf("%w at cycle 4096 of 50000", gpu.ErrInterrupted), context.Canceled)
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"panic", &PanicError{Index: 1, Value: "boom"}, true},
		{"wrapped panic", fmt.Errorf("outer: %w", &PanicError{Index: 1}), true},
		{"timeout", timeoutErr, true},
		{"bare deadline", context.DeadlineExceeded, true},
		{"cancel", cancelErr, false},
		{"bare cancel", context.Canceled, false},
		{"invariant", &sm.InvariantError{Cycle: 10, Rule: "mil-cap"}, false},
		{"wrapped invariant", fmt.Errorf("point 3: %w", &sm.InvariantError{Rule: "mil-cap"}), false},
		{"validation", fmt.Errorf("gcke: StaticLimits has 1 entries for 2 kernels"), false},
		{"store write", &resultcache.WriteError{Path: "p", Key: "k", Op: "sync", Err: fmt.Errorf("EIO")}, false},
		{"wrapped store write", fmt.Errorf("runner: storing k: %w",
			&resultcache.WriteError{Op: "sync", Err: fmt.Errorf("EIO")}), false},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunFaultSeam: an error returned by the Fault hook fails exactly
// that job; a panicking hook is recovered like any worker panic.
func TestRunFaultSeam(t *testing.T) {
	jobs := testJobs(t)
	r := New(4)
	r.Fault = func(ctx context.Context, index int, key string) error {
		switch index {
		case 1:
			return fmt.Errorf("injected fault for %s", key)
		case 3:
			panic("injected hook panic")
		}
		return nil
	}
	results := r.Run(context.Background(), jobs)
	for i, res := range results {
		switch i {
		case 1:
			if res.Err == nil || res.Res != nil {
				t.Fatalf("job 1: err=%v res=%v, want injected failure", res.Err, res.Res)
			}
		case 3:
			var pe *PanicError
			if !errors.As(res.Err, &pe) || pe.Index != 3 {
				t.Fatalf("job 3: err=%v, want recovered *PanicError", res.Err)
			}
		default:
			if res.Err != nil {
				t.Fatalf("job %d poisoned by injected faults: %v", i, res.Err)
			}
		}
	}
}

// TestRunChaosPanicThenRecover drives the Fault seam with the real
// chaos injector: every job's first attempt panics, a second Run of the
// same grid (same keys, budget spent) succeeds — the failing-then-
// recovering shape the service retry loop depends on.
func TestRunChaosPanicThenRecover(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicProb: 1, Failures: 1})
	r := New(4)
	r.Fault = inj.JobFault

	first := r.Run(context.Background(), testJobs(t))
	for i, res := range first {
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Fatalf("first attempt job %d: err=%v, want *PanicError", i, res.Err)
		}
		if !IsTransient(res.Err) {
			t.Fatalf("job %d: injected panic not classified transient", i)
		}
	}
	second := r.Run(context.Background(), testJobs(t))
	if err := FirstErr(second); err != nil {
		t.Fatalf("retry after chaos budget spent still fails: %v", err)
	}
}

// TestRunTimeoutCancelRace exercises the race between the per-job
// deadline and parent-context cancellation firing together (under
// -race this doubles as the data-race check on the two ctx.Done paths):
// every job must fail with one of the two context errors — never a
// silent zero Result, never a mixed or missing attribution.
func TestRunTimeoutCancelRace(t *testing.T) {
	// A run far too long to finish, so only the two deadlines can end it.
	bp, _ := gcke.Benchmark("bp")
	sv, _ := gcke.Benchmark("sv")
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Config: gcke.ScaledConfig(2), Cycles: 500_000_000, Kernels: []gcke.Kernel{bp, sv},
			Scheme: gcke.Scheme{Partition: gcke.PartitionEven}}
	}
	r := New(4)
	r.Timeout = 5 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Land the cancellation right on top of the per-job timeouts.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	results := r.Run(ctx, jobs)
	wg.Wait()
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("job %d: no error from an unfinishable run", i)
		}
		deadline := errors.Is(res.Err, context.DeadlineExceeded)
		cancelled := errors.Is(res.Err, context.Canceled)
		if !deadline && !cancelled {
			t.Fatalf("job %d: err=%v, want DeadlineExceeded or Canceled in chain", i, res.Err)
		}
		if res.Res != nil {
			t.Fatalf("job %d: result delivered alongside error", i)
		}
	}
}
