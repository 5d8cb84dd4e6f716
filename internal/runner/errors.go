package runner

import (
	"context"
	"errors"

	"repro/internal/resultcache"
	"repro/internal/sm"
)

// IsTransient classifies a job error for retry policy: true means the
// failure is plausibly environmental and re-running the same job may
// succeed; false means retrying is futile.
//
// Transient: a recovered worker panic (*PanicError) and a per-job
// deadline expiry (an error chain carrying context.DeadlineExceeded) —
// both describe the attempt, not the job.
//
// Not transient: cancellation (context.Canceled — the caller asked to
// stop), invariant-watchdog violations (*sm.InvariantError — the engine
// is deterministic, the same point trips the same rule every time),
// result-store write failures (*resultcache.WriteError — the job
// succeeded, the disk did not; re-simulating does not fix the disk), and everything
// else (validation and configuration errors are properties of the job).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var ie *sm.InvariantError
	if errors.As(err, &ie) {
		return false
	}
	var we *resultcache.WriteError
	if errors.As(err, &we) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}
