// Package backoff implements capped exponential backoff with
// deterministic jitter for retrying transient job failures.
//
// The fleet coordinator requeues jobs whose failure is plausibly
// environmental (a worker's transient answer, a dropped connection, an
// expired lease) rather than a property of the job itself; a worker runs
// each job once. Retrying in lockstep would synchronize retries from
// concurrent jobs into bursts, so each delay is jittered — but the
// simulator's reproducibility contract extends to its failure handling:
// the jitter is drawn from internal/xrand seeded by the job fingerprint
// and attempt number, so the same job retried in the same process (or a
// different one) waits exactly as long. There is no global randomness
// and no wall-clock dependence anywhere in the schedule.
package backoff

import (
	"context"
	"hash/fnv"
	"time"

	"repro/internal/xrand"
)

// Defaults used when the corresponding Policy field is zero.
const (
	DefaultBase   = 100 * time.Millisecond
	DefaultCap    = 5 * time.Second
	DefaultFactor = 2.0
	DefaultJitter = 0.5
)

// Default returns the recommended policy: 100ms base doubling to a 5s
// cap, with half of each delay jittered.
func Default() Policy {
	return Policy{Base: DefaultBase, Cap: DefaultCap, Factor: DefaultFactor, Jitter: DefaultJitter}
}

// Policy describes a capped exponential backoff schedule. The zero value
// is usable: it selects the default base/cap/factor with no jitter (use
// Default for the jittered recommendation).
type Policy struct {
	// Base is the nominal first delay (attempt 1).
	Base time.Duration
	// Cap bounds every delay regardless of attempt number.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier.
	Factor float64
	// Jitter is the fraction of each delay that is randomized: a delay d
	// becomes uniform in [d*(1-Jitter), d]. 0 disables jitter; values
	// outside [0,1] are clamped.
	Jitter float64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Cap <= 0 {
		p.Cap = DefaultCap
	}
	if p.Factor < 1 {
		p.Factor = DefaultFactor
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the wait before retry number attempt (1-based; attempt 0
// and below return 0) of the job identified by key. It is a pure
// function of (Policy, key, attempt).
func (p Policy) Delay(key string, attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= p.Factor
		if d >= float64(p.Cap) {
			break
		}
	}
	if d > float64(p.Cap) {
		d = float64(p.Cap)
	}
	if p.Jitter > 0 {
		// One independent deterministic stream per (key, attempt):
		// the draw does not depend on how many delays were computed
		// before it, so concurrent retry loops stay reproducible.
		src := xrand.New(hashKey(key)).Fork(uint64(attempt))
		d *= 1 - p.Jitter*src.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Sleep waits out d, or returns ctx's error as soon as ctx is done: the
// one retry wait (which retry, and for how long, is the caller's).
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hashKey folds a job fingerprint into a 64-bit stream selector.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
