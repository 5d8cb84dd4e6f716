package gcke

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAloneSeriesIsPinned: Figure 6's alone columns are a one-kernel
// RunWorkload under the even partition (one kernel's even share is its
// full occupancy) with Series. The constants are the sha256 of bp's and
// sv's Issued and L1Acc series as the deleted full-occupancy series
// profile produced them, which this run reproduced; a change that moves
// them moves Figure 6.
func TestAloneSeriesIsPinned(t *testing.T) {
	s := NewSession(ScaledConfig(4), 20_000)
	s.ProfileCycles = 4_000
	want := map[string]string{
		"bp": "fc5bac8af4a6125e3f75fb6305249f37302e2e25125c967dec6e9452407a318a",
		"sv": "97b5fe111c69da5cdab9fd821eb407d398df0b06697ac77671ed1687812af046",
	}
	for _, name := range []string{"bp", "sv"} {
		k, _ := Benchmark(name)
		res, err := s.RunWorkload([]Kernel{k}, Scheme{Partition: PartitionEven, Series: true})
		if err != nil {
			t.Fatal(err)
		}
		se := res.Kernels[0].Series
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(se.Issued, " ", se.L1Acc)))); got != want[name] {
			t.Errorf("%s alone: series sha256 %s, want %s", name, got, want[name])
		}
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
// simulates the point afresh — whether the leader entered through a
// public call (RunIsolated) or the fetch under it.
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
					s.fetch(context.Background(), s.points([]Kernel{bp}, false))
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
