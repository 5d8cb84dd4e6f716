// Package overload holds the overload-control mechanisms of the service
// and fleet layers: a token-bucket retry budget that bounds the fleet
// coordinator's aggregate requeue amplification (the one retry layer: a
// server runs each job once), a per-job-family service-time estimator —
// the one latency estimate, behind the server's deadline-aware admission
// and Retry-After hint and the fleet's straggler-hedge threshold — and a
// ring buffer of recent queue waits for percentile reporting.
//
// The design goal is graceful degradation under sustained overload: when
// offered load exceeds capacity, goodput (jobs completed within their
// deadline) should plateau at capacity instead of collapsing, because
//
//   - work that can no longer meet its deadline is shed on arrival (or
//     dropped at dequeue once it has gone stale) before it burns an
//     engine slot,
//   - and retries can never exceed a bounded fraction of fresh traffic,
//     closing the retry-amplification loop behind metastable collapse.
//
// Every type here is safe for concurrent use and deliberately free of
// background goroutines: state advances only when callers observe
// samples, so the mechanisms are as testable as the engine they guard.
package overload

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// RetryBudget is a token bucket bounding aggregate retry amplification:
// each retry spends one token, each success earns Ratio of one, and the
// balance is capped at Burst (also the initial balance). Retries are
// therefore bounded by Burst + Ratio x successes — a fleet or server
// whose fresh traffic is all failing runs out of tokens instead of
// amplifying its own overload.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	ratio  float64
}

// NewRetryBudget returns a budget refilled by ratio per success, capped
// at (and starting from) burst. Negative arguments clamp to zero; a
// zero burst with a zero ratio never grants a retry.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if ratio < 0 {
		ratio = 0
	}
	if burst < 0 {
		burst = 0
	}
	return &RetryBudget{tokens: burst, burst: burst, ratio: ratio}
}

// Earn credits one success's worth of refill.
func (b *RetryBudget) Earn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Spend consumes one retry token, reporting whether one was available.
func (b *RetryBudget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (for observability).
func (b *RetryBudget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// maxFamilies bounds the estimator map: families are coarse (machine
// size, run length, kernel mix — not schemes), so real deployments hold
// a handful; the bound only guards against a client minting unbounded
// distinct cycle counts to leak memory.
const maxFamilies = 4096

// AllFamilies is the estimator key a caller folds every sample under,
// whatever its family, for a load-wide estimate. No Family is empty.
const AllFamilies = ""

// Estimator tracks a service-time EWMA per job family: the server's
// estimate of how long a job will hold an engine slot. Under AllFamilies
// it is also the server's load-wide estimate, behind its Retry-After
// hint, and the fleet coordinator's of how long a dispatch takes.
// Families deliberately exclude the scheme: schemes steer the simulated
// machine, not the simulation's cost, so a new scheme inherits its
// family's estimate instead of being admitted blind.
type Estimator struct {
	mu   sync.Mutex
	ewma map[string]int64 // family -> nanoseconds
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{ewma: make(map[string]int64)}
}

// Observe folds one attempt's service time into the family's EWMA
// (alpha 0.2, integer nanoseconds; the first sample is taken as is).
// The server clamps d to its per-attempt timeout first, so a straggling
// attempt cannot inflate the estimate beyond what it would ever spend
// on a job.
func (e *Estimator) Observe(family string, d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ewma) >= maxFamilies {
		if _, ok := e.ewma[family]; !ok {
			e.ewma = make(map[string]int64) // reset; estimates re-warm in a few samples
		}
	}
	ns := d.Nanoseconds()
	if old := e.ewma[family]; old > 0 {
		ns = old + (ns-old)/5
	}
	e.ewma[family] = ns
}

// Estimate returns the family's current service-time estimate; ok is
// false when the family has never been observed.
func (e *Estimator) Estimate(family string) (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ns, ok := e.ewma[family]
	return time.Duration(ns), ok
}

// Family derives the estimator key for a job: the machine size, run
// length and kernel mix that dominate simulation cost. Two jobs in one
// family differ only in scheme, which leaves cost essentially unchanged.
func Family(sms int, cycles int64, kernels []string) string {
	return fmt.Sprintf("sms=%d|cycles=%d|kernels=%s", sms, cycles, strings.Join(kernels, "+"))
}

// WaitRing records the most recent queue waits (admission to slot
// acquisition) in a fixed ring for percentile reporting. Observation is
// O(1); Percentile sorts a copy and is meant for /statz-rate callers.
type WaitRing struct {
	mu  sync.Mutex
	buf []int64
	n   int // total observations ever
}

// NewWaitRing returns a ring holding the last size samples (size <= 0
// selects 1024).
func NewWaitRing(size int) *WaitRing {
	if size <= 0 {
		size = 1024
	}
	return &WaitRing{buf: make([]int64, size)}
}

// Observe records one queue wait.
func (r *WaitRing) Observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%len(r.buf)] = d.Nanoseconds()
	r.n++
	r.mu.Unlock()
}

// Percentile returns the p-quantile (0 < p <= 1) over the retained
// samples, or 0 when nothing has been observed.
func (r *WaitRing) Percentile(p float64) time.Duration {
	r.mu.Lock()
	m := r.n
	if m > len(r.buf) {
		m = len(r.buf)
	}
	samples := make([]time.Duration, m)
	for i := 0; i < m; i++ {
		samples[i] = time.Duration(r.buf[i])
	}
	r.mu.Unlock()
	return Percentile(samples, p)
}

// Percentile returns the p-quantile (nearest-rank, 0 < p <= 1) of
// samples, or 0 for an empty slice. It sorts a copy; callers keep their
// order.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
