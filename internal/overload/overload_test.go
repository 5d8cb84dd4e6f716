package overload

import (
	"sync"
	"testing"
	"time"
)

func TestRetryBudgetSpendAndEarn(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	if !b.Spend() || !b.Spend() {
		t.Fatal("burst tokens not spendable")
	}
	if b.Spend() {
		t.Fatal("spend granted beyond burst")
	}
	b.Earn() // 0.5 — still below one token
	if b.Spend() {
		t.Fatal("spend granted on fractional token")
	}
	b.Earn() // 1.0
	if !b.Spend() {
		t.Fatal("earned token not spendable")
	}
}

func TestRetryBudgetCapsAtBurst(t *testing.T) {
	b := NewRetryBudget(1, 3)
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if got := b.Tokens(); got != 3 {
		t.Fatalf("tokens = %v, want capped at 3", got)
	}
}

func TestRetryBudgetZeroNeverGrants(t *testing.T) {
	b := NewRetryBudget(0, 0)
	if b.Spend() {
		t.Fatal("zero budget granted a retry")
	}
}

func TestEstimatorWarmsAndConverges(t *testing.T) {
	e := NewEstimator()
	if _, ok := e.Estimate("f"); ok {
		t.Fatal("estimate for unobserved family")
	}
	e.Observe("f", 100*time.Millisecond)
	if d, ok := e.Estimate("f"); !ok || d != 100*time.Millisecond {
		t.Fatalf("first sample should seed the EWMA: %v %v", d, ok)
	}
	for i := 0; i < 64; i++ {
		e.Observe("f", 10*time.Millisecond)
	}
	d, _ := e.Estimate("f")
	if d > 12*time.Millisecond {
		t.Fatalf("EWMA failed to converge: %v", d)
	}
}

func TestEstimatorFamiliesIndependent(t *testing.T) {
	e := NewEstimator()
	e.Observe("fast", time.Millisecond)
	e.Observe("slow", time.Second)
	f, _ := e.Estimate("fast")
	s, _ := e.Estimate("slow")
	if f >= s {
		t.Fatalf("families bled together: fast=%v slow=%v", f, s)
	}
}

func TestEstimatorBoundsFamilies(t *testing.T) {
	e := NewEstimator()
	for i := 0; i < maxFamilies+10; i++ {
		e.Observe(Family(2, int64(i), []string{"bp"}), time.Millisecond)
	}
	e.mu.Lock()
	n := len(e.ewma)
	e.mu.Unlock()
	if n > maxFamilies {
		t.Fatalf("family map unbounded: %d", n)
	}
}

func TestFamilyIgnoresNothingItShould(t *testing.T) {
	a := Family(2, 8000, []string{"bp", "ks"})
	b := Family(2, 8000, []string{"bp", "ks"})
	c := Family(4, 8000, []string{"bp", "ks"})
	if a != b {
		t.Fatalf("identical inputs differ: %q vs %q", a, b)
	}
	if a == c {
		t.Fatalf("different SMs collide: %q", a)
	}
}

func TestWaitRingPercentiles(t *testing.T) {
	r := NewWaitRing(8)
	if got := r.Percentile(0.5); got != 0 {
		t.Fatalf("empty ring percentile = %v, want 0", got)
	}
	for i := 1; i <= 8; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(0.5); got != 4*time.Millisecond {
		t.Fatalf("p50 = %v, want 4ms", got)
	}
	if got := r.Percentile(1); got != 8*time.Millisecond {
		t.Fatalf("p100 = %v, want 8ms", got)
	}
	// Overwrite wraps: ring keeps only the newest 8.
	for i := 0; i < 8; i++ {
		r.Observe(100 * time.Millisecond)
	}
	if got := r.Percentile(0.5); got != 100*time.Millisecond {
		t.Fatalf("post-wrap p50 = %v, want 100ms", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	if got := Percentile(samples, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(samples, 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if samples[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("nil samples = %v, want 0", got)
	}
}

func TestConcurrentUseUnderRace(t *testing.T) {
	b := NewRetryBudget(0.1, 10)
	e := NewEstimator()
	r := NewWaitRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%2 == 0 {
					b.Earn()
				} else {
					b.Spend()
				}
				e.Observe(Family(g, int64(i%4), []string{"bp"}), time.Millisecond)
				e.Estimate(Family(g, int64(i%4), []string{"bp"}))
				r.Observe(time.Duration(i) * time.Microsecond)
				r.Percentile(0.95)
			}
		}(g)
	}
	wg.Wait()
}
