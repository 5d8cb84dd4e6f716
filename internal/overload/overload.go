// Package overload holds the overload-control mechanisms of the service
// and fleet layers: a service-time estimator — the one latency
// estimate, behind the server's deadline-aware admission and Retry-After
// hint and the fleet's straggler-hedge threshold — and a ring buffer of
// recent queue waits for percentile reporting.
//
// The design goal is graceful degradation under sustained overload: when
// offered load exceeds capacity, goodput (jobs completed within their
// deadline) should plateau at capacity instead of collapsing, because
// work that can no longer meet its deadline is shed on arrival (or
// dropped at dequeue once it has gone stale) before it burns an engine
// slot. Retries are bounded elsewhere: a server runs each job once, and
// the fleet coordinator's requeue is capped per job by its attempt limit
// and in load by its per-worker dispatch slots.
//
// Every type here is safe for concurrent use and deliberately free of
// background goroutines: state advances only when callers observe
// samples, so the mechanisms are as testable as the engine they guard.
package overload

import (
	"sort"
	"sync"
	"time"
)

// Estimator tracks one service-time EWMA: the server's estimate of how
// long a job will hold an engine slot, behind its deadline admission,
// dequeue staleness check and Retry-After hint, and the fleet
// coordinator's of how long a dispatch takes, behind its straggler-hedge
// threshold. It is deliberately not split by job: a sweep's jobs share
// one machine and run length, and a job of a kernel mix never served is
// priced like the rest instead of being admitted blind.
type Estimator struct {
	mu   sync.Mutex
	ewma int64 // nanoseconds; 0 until the first sample
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator { return &Estimator{} }

// Observe folds one attempt's service time into the EWMA (alpha 0.2,
// integer nanoseconds; the first sample is taken as is). The server
// clamps d to its per-attempt timeout first, so a straggling attempt
// cannot inflate the estimate beyond what it would ever spend on a job.
func (e *Estimator) Observe(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ns := d.Nanoseconds()
	if e.ewma > 0 {
		ns = e.ewma + (ns-e.ewma)/5
	}
	e.ewma = ns
}

// Estimate returns the current service-time estimate, 0 before the
// first sample.
func (e *Estimator) Estimate() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.ewma)
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
