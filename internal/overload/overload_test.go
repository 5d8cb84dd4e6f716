package overload

import (
	"sync"
	"testing"
	"time"
)

func TestEstimatorWarmsAndConverges(t *testing.T) {
	e := NewEstimator()
	if d := e.Estimate(); d != 0 {
		t.Fatalf("estimate before any sample = %v, want 0", d)
	}
	e.Observe(100 * time.Millisecond)
	if d := e.Estimate(); d != 100*time.Millisecond {
		t.Fatalf("first sample should seed the EWMA: %v", d)
	}
	for i := 0; i < 64; i++ {
		e.Observe(10 * time.Millisecond)
	}
	d := e.Estimate()
	if d > 12*time.Millisecond {
		t.Fatalf("EWMA failed to converge: %v", d)
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
	e := NewEstimator()
	r := NewWaitRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Observe(time.Duration(g+1) * time.Millisecond)
				e.Estimate()
				r.Observe(time.Duration(i) * time.Microsecond)
				r.Percentile(0.95)
			}
		}(g)
	}
	wg.Wait()
}
