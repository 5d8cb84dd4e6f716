package gcke

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestIsolatedIPCRejectsOutOfRange: a curve point exists for 1..max TBs
// per SM only. Zero once simulated an empty machine and cached IPC 0;
// above max once duplicated the full-occupancy run.
func TestIsolatedIPCRejectsOutOfRange(t *testing.T) {
	s := shortSession()
	calls := 0
	s.onProfile = func(ctx context.Context, kernel string, tbs int) { calls++ }
	bp, _ := Benchmark("bp")
	cfg := s.Config()
	for _, n := range []int{-1, 0, bp.MaxTBsPerSM(&cfg) + 1} {
		if v, err := s.IsolatedIPC(bp, n); err == nil {
			t.Errorf("IsolatedIPC(bp, %d) = %v, want an error", n, v)
		}
	}
	if calls != 0 {
		t.Errorf("out-of-range points simulated %d times, want 0", calls)
	}
	if n := tableLen(s); n != 0 {
		t.Errorf("out-of-range points left %d entries in the table, want 0", n)
	}
}

// tableLen is the number of points in s's profile table.
func tableLen(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.profiles)
}

// TestProfileLeaderPanicReleasesWaiters: a panic in a profile simulation
// must not strand its point. A waiter parked on the point gets an error
// naming the panic, the panic goes on in the leader, and the next caller
// simulates the point afresh — whether the leader took the point in the
// wait pass (RunIsolated) or the claim pass (claimProfiles).
func TestProfileLeaderPanicReleasesWaiters(t *testing.T) {
	bp, _ := Benchmark("bp")
	for _, leadWith := range []string{"wait", "claim"} {
		t.Run(leadWith, func(t *testing.T) {
			s := shortSession()
			started, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int32
			s.onProfile = func(ctx context.Context, kernel string, tbs int) {
				if calls.Add(1) == 1 {
					close(started)
					<-release
					panic("kaboom")
				}
			}
			leaderPanic := make(chan any, 1)
			go func() {
				defer func() { leaderPanic <- recover() }()
				if leadWith == "wait" {
					s.RunIsolated(bp)
				} else {
					s.claimProfiles(context.Background(), []Kernel{bp}, false)
				}
			}()
			<-started

			waiter := make(chan error, 1)
			go func() {
				_, err := s.RunIsolated(bp)
				waiter <- err
			}()
			awaitProfileWaiters(1)
			close(release)

			timeout := time.After(10 * time.Second)
			select {
			case err := <-waiter:
				if err == nil || !strings.Contains(err.Error(), "panicked: kaboom") {
					t.Fatalf("waiter error = %v, want one naming the panic", err)
				}
			case <-timeout:
				t.Fatal("waiter still blocked 10 s after the leader panicked")
			}
			select {
			case p := <-leaderPanic:
				if fmt.Sprint(p) != "kaboom" {
					t.Fatalf("leader recovered %v, want the original panic", p)
				}
			case <-timeout:
				t.Fatal("leader did not unwind")
			}
			if _, err := s.RunIsolated(bp); err != nil {
				t.Fatalf("RunIsolated after the panic: %v", err)
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("%d simulations, want 2: the point was not simulated afresh", n)
			}
		})
	}
}
