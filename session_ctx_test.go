package gcke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/gpu"
)

// TestRunWorkloadCtxCancellation: a cancelled context interrupts the
// simulation and the error carries both the interruption and the cause.
func TestRunWorkloadCtxCancellation(t *testing.T) {
	s := testSession(t)
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunWorkloadCtx(ctx, []Kernel{bp, sv}, Scheme{Partition: PartitionEven})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, gpu.ErrInterrupted) {
		t.Fatalf("err = %v, want gpu.ErrInterrupted in chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}

	// A cancelled profiling run must not poison the cache: rerunning
	// without cancellation succeeds.
	if _, err := s.RunWorkload([]Kernel{bp, sv}, Scheme{Partition: PartitionEven}); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}

// TestRunWorkloadCtxDeadline: a deadline surfaces as DeadlineExceeded.
func TestRunWorkloadCtxDeadline(t *testing.T) {
	s := NewSession(ScaledConfig(2), 100_000_000) // far too long for 1ms
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.RunWorkloadCtx(ctx, []Kernel{bp, sv}, Scheme{Partition: PartitionEven})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
}

// TestSessionCheckCleanWorkload: the invariant watchdog stays silent on
// a healthy run driven through the public API, including the paper's
// managed schemes.
func TestSessionCheckCleanWorkload(t *testing.T) {
	s := testSession(t)
	s.Check = true
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	for _, sc := range []Scheme{
		{Partition: PartitionEven},
		{Partition: PartitionWarpedSlicer, MemIssue: MemIssueQBMI},
		{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL},
	} {
		if _, err := s.RunWorkloadCtx(context.Background(), []Kernel{bp, sv}, sc); err != nil {
			t.Fatalf("%s: healthy run flagged: %v", sc.Name(), err)
		}
	}
}

// TestWaiterSurvivesLeaderCancel: a shared profile simulation runs under
// its leader's ctx. When that ctx is cancelled mid-profile, a waiter
// whose own ctx is live must not inherit the interruption: it runs the
// profile itself and returns what a session without the incident
// returns.
func TestWaiterSurvivesLeaderCancel(t *testing.T) {
	bp, _ := Benchmark("bp")
	sv, _ := Benchmark("sv")
	wl := []Kernel{bp, sv}
	scheme := Scheme{Partition: PartitionWarpedSlicer, Limiting: LimitDMIL}
	ref, err := shortSession().RunWorkload(wl, scheme)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	s := shortSession()
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leading := make(chan struct{})
	// Hold the leader at the start of bp's profile until the waiter is
	// parked on it and the leader's ctx is cancelled.
	s.onProfile = func(ctx context.Context, kernel string, tbs int) {
		if ctx == leaderCtx {
			close(leading)
			<-ctx.Done()
		}
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.RunIsolatedCtx(leaderCtx, bp)
		leaderErr <- err
	}()
	<-leading
	type outcome struct {
		res *WorkloadResult
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, err := s.RunWorkloadCtx(context.Background(), wl, scheme)
		waiter <- outcome{res, err}
	}()
	awaitProfileWaiters(1)
	cancel()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled in chain", err)
	}
	out := <-waiter
	if out.err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", out.err)
	}
	got, err := json.Marshal(out.res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("waiter's result differs from a serial session's")
	}
}
