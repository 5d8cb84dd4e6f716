package fleet

import (
	"time"

	"repro/internal/backoff"
)

// Shorten sizes a new coordinator's fixed settings for a test: ten
// attempts on a millisecond backoff, a health probe every interval and
// slots dispatches per worker. Call it before the first Execute.
func Shorten(c *Coordinator, interval time.Duration, slots int) {
	c.maxAttempts = 10
	c.retry = backoff.Policy{Base: time.Millisecond, Cap: 5 * time.Millisecond, Factor: 2, Jitter: 0.5}
	c.healthInterval = interval
	for _, w := range c.workers {
		w.slots = make(chan struct{}, slots)
	}
}
