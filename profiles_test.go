package gcke

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kern"
)

// TestIsolatedIPCRejectsOutOfRange: a curve point exists for 1..max TBs
// per SM only. Zero once simulated an empty machine and cached IPC 0,
// which SaveProfiles wrote as a row its own LoadProfiles rejected; above
// max once duplicated the full-occupancy run.
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
	path := filepath.Join(t.TempDir(), "profiles.json")
	if err := s.SaveProfiles(path); err != nil {
		t.Fatal(err)
	}
	if err := shortSession().LoadProfiles(path); err != nil {
		t.Fatalf("a session's own profile file rejected: %v", err)
	}
}

// writeProfiles writes a profile file with the given fingerprint and
// rows.
func writeProfiles(t *testing.T, fingerprint string, rows map[string]map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(profileFile{Fingerprint: fingerprint, IsoIPC: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profiles.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tableLen is the number of points in s's profile table.
func tableLen(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.profiles)
}

// TestLoadProfilesRejectsChangedKernels: the rows of a profile file are
// keyed by kernel name, so a file written before a built-in descriptor
// changed would feed the old kernel's profiles to the new one. Such a
// file is rejected as a whole, and a row naming no built-in kernel is
// malformed.
func TestLoadProfilesRejectsChangedKernels(t *testing.T) {
	rows := map[string]map[string]float64{"bp": {"3": 1.5}, "sv": {"2": 0.5}}
	s := shortSession()
	if err := s.LoadProfiles(writeProfiles(t, s.fingerprint(kern.Benchmarks()), rows)); err != nil {
		t.Fatalf("file of the current built-ins rejected: %v", err)
	}
	if n := tableLen(s); n != 2 {
		t.Fatalf("loaded %d points, want 2", n)
	}

	before := kern.Benchmarks()
	before[0].CPerM++ // the built-ins as they were when the file was written
	s = shortSession()
	if err := s.LoadProfiles(writeProfiles(t, s.fingerprint(before), rows)); err == nil {
		t.Fatal("file written under other built-in descriptors accepted")
	}
	if n := tableLen(s); n != 0 {
		t.Fatalf("rejected file left %d points in the session", n)
	}

	rows["zz"] = map[string]float64{"1": 1}
	if err := s.LoadProfiles(writeProfiles(t, s.fingerprint(kern.Benchmarks()), rows)); err == nil {
		t.Fatal("row of an unknown kernel accepted")
	}
	if n := tableLen(s); n != 0 {
		t.Fatalf("rejected file left %d points in the session", n)
	}
}

// TestSaveProfilesKeepsBuiltinsOnly: a custom kernel that shares a
// built-in's name is profiled under its own descriptor and never written
// to the file, whose rows load under the built-in descriptors.
func TestSaveProfilesKeepsBuiltinsOnly(t *testing.T) {
	bp, _ := Benchmark("bp")
	variant := bp
	variant.CPerM = 1
	s := shortSession()
	want, err := s.IsolatedIPC(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IsolatedIPC(variant, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profiles.json")
	if err := s.SaveProfiles(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pf profileFile
	if err := json.Unmarshal(data, &pf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(pf.IsoIPC); got != fmt.Sprint(map[string]map[string]float64{"bp": {"1": want}}) {
		t.Fatalf("saved rows %s, want bp's point 1 only", got)
	}
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
