package cli

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/sm"
)

func collectLog() (func(format string, args ...any), *[]string) {
	var lines []string
	return func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, &lines
}

func TestFailuresAbortReturnsFirstError(t *testing.T) {
	rb := &Robustness{OnError: "abort"}
	logf, lines := collectLog()
	results := []runner.Result{
		{Key: "a"},
		{Key: "b", Err: fmt.Errorf("boom-b")},
		{Key: "c", Err: fmt.Errorf("boom-c")},
	}
	n, err := rb.Failures(logf, results)
	if n != 0 || err == nil || err.Error() != "boom-b" {
		t.Fatalf("Failures = (%d, %v), want (0, boom-b)", n, err)
	}
	if len(*lines) != 0 {
		t.Fatalf("abort mode logged %v, want nothing", *lines)
	}
}

func TestFailuresSkipClassifiesTransience(t *testing.T) {
	rb := &Robustness{OnError: "skip"}
	logf, lines := collectLog()
	results := []runner.Result{
		{Key: "ok"},
		{Key: "panicked", Err: &runner.PanicError{Index: 1, Key: "panicked", Value: "boom"}},
		{Key: "violated", Err: &sm.InvariantError{Cycle: 7, SM: 0, Rule: "mshr-leak"}},
	}
	n, err := rb.Failures(logf, results)
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
	// points did not fail, so even skip mode must surface the interrupt
	// instead of rendering a mostly-"fail" grid as if it were data.
	rb := &Robustness{OnError: "skip"}
	logf, lines := collectLog()
	results := []runner.Result{
		{Key: "a", Err: fmt.Errorf("wrap: %w", context.Canceled)},
		{Key: "b", Err: fmt.Errorf("also canceled: %w", context.Canceled)},
	}
	_, err := rb.Failures(logf, results)
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
		{"defaults", Robustness{OnError: "abort"}, ""},
		{"skip", Robustness{OnError: "skip"}, ""},
		{"timeout", Robustness{OnError: "abort", Timeout: time.Minute}, ""},
		{"unknown-on-error", Robustness{OnError: "retry"}, "-on-error"},
		{"negative-timeout", Robustness{OnError: "abort", Timeout: -time.Minute}, "-timeout"},
		{"negative-nanosecond", Robustness{OnError: "skip", Timeout: -1}, "-timeout"},
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
