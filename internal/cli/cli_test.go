package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sm"
)

func collectLog() (func(format string, args ...any), *[]string) {
	var lines []string
	return func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, &lines
}

func TestFailuresSkipClassifiesTransience(t *testing.T) {
	logf, lines := collectLog()
	results := []runner.Result{
		{Key: "ok"},
		{Key: "panicked", Err: &runner.PanicError{Index: 1, Key: "panicked", Value: "boom"}},
		{Key: "violated", Err: &sm.InvariantError{Cycle: 7, SM: 0, Rule: "mshr-leak"}},
	}
	n, err := Failures(logf, results)
	if err != nil {
		t.Fatalf("Failures: %v", err)
	}
	if n != 2 {
		t.Fatalf("failed count = %d, want 2", n)
	}
	joined := strings.Join(*lines, "\n")
	if !strings.Contains(joined, "transient failure") {
		t.Errorf("panic not classified transient:\n%s", joined)
	}
	if !strings.Contains(joined, "permanent failure") {
		t.Errorf("invariant not classified permanent:\n%s", joined)
	}
}

func TestFailuresSkipAbortsOnCancellation(t *testing.T) {
	// Cancellation means the user stopped the sweep: the unfinished
	// points did not fail, so the interrupt must surface instead of a
	// mostly-"fail" grid rendered as if it were data.
	logf, lines := collectLog()
	results := []runner.Result{
		{Key: "a", Err: fmt.Errorf("wrap: %w", context.Canceled)},
		{Key: "b", Err: fmt.Errorf("also canceled: %w", context.Canceled)},
	}
	_, err := Failures(logf, results)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("Failures err = %v, want cancellation", err)
	}
	if len(*lines) != 0 {
		t.Fatalf("cancelled points logged as failures: %v", *lines)
	}
}

func TestFailureSummary(t *testing.T) {
	results := []runner.Result{
		{Key: "a"},
		{Key: "b", Err: fmt.Errorf("first boom")},
		{Key: "c"},
		{Key: "d", Err: fmt.Errorf("second boom")},
	}
	got := FailureSummary(results)
	want := "2/4 points failed, first error: first boom"
	if got != want {
		t.Fatalf("FailureSummary = %q, want %q", got, want)
	}
	if s := FailureSummary([]runner.Result{{Key: "a"}}); s != "" {
		t.Fatalf("FailureSummary(clean) = %q, want empty", s)
	}
}

// TestValidateRefusesBadOptions: an option value that would silently
// mean something else is refused, with a message naming its flag.
func TestValidateRefusesBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		rb   Robustness
		want string // "" = valid
	}{
		{"defaults", Robustness{}, ""},
		{"timeout", Robustness{Timeout: time.Minute}, ""},
		{"negative-timeout", Robustness{Timeout: -time.Minute}, "-timeout"},
		{"negative-nanosecond", Robustness{Timeout: -1}, "-timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rb.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// TestRunnerAppliesCheck: -check reaches the runner, and through it every
// session the runner makes.
func TestRunnerAppliesCheck(t *testing.T) {
	for _, check := range []bool{false, true} {
		run, closeStores, err := (&Robustness{Check: check}).Runner(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		closeStores()
		if run.Check != check {
			t.Fatalf("Check=%v: runner.Check = %v", check, run.Check)
		}
	}
}

// TestOpenStoreFollowsTheFlags: two store flags, one opener. -journal
// opens the durable store at its path (and reports what it holds on a
// restart), -cache alone a memory-only one, neither none; -cache-dir is
// gone.
func TestOpenStoreFollowsTheFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	open := func(args ...string) (*resultcache.Store, []string) {
		t.Helper()
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		rb := AddFlags(fs, "journal", "cache")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		logf, lines := collectLog()
		s, err := rb.OpenStore(logf)
		if err != nil {
			t.Fatal(err)
		}
		return s, *lines
	}
	if s, _ := open(); s != nil {
		t.Fatal("a store opened without -journal or -cache")
	}
	mem, _ := open("-cache")
	if err := mem.Put("k", []byte("1")); err != nil || mem.Len() != 1 {
		t.Fatalf("-cache store: Put = %v, Len %d", err, mem.Len())
	}
	s, _ := open("-journal", path, "-cache")
	if err := s.Put("k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, lines := open("-journal", path)
	defer s.Close()
	if s.Len() != 1 || len(lines) != 1 || !strings.Contains(lines[0], "resuming past 1 stored point") {
		t.Fatalf("reopened -journal store: Len %d, log %q", s.Len(), lines)
	}
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddFlags(fs, "check", "journal", "timeout", "cache")
	if err := fs.Parse([]string{"-cache-dir", t.TempDir()}); err == nil {
		t.Fatal("-cache-dir still accepted")
	}
}
