package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayDeterministic(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.5}
	for attempt := 1; attempt <= 8; attempt++ {
		a := p.Delay("j1-abc", attempt)
		b := p.Delay("j1-abc", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, a, b)
		}
	}
	// Different keys must draw from different
	// jitter streams, or concurrent retries synchronize into bursts.
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if p.Delay("j1-abc", attempt) == p.Delay("j1-def", attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("all delays identical across keys: jitter stream is not key-separated")
	}
}

func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay("k", i+1); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", i+1, got, w)
		}
	}
	if got := p.Delay("k", 0); got != 0 {
		t.Fatalf("attempt 0: delay %v, want 0", got)
	}
	if got := p.Delay("k", -3); got != 0 {
		t.Fatalf("negative attempt: delay %v, want 0", got)
	}
}

func TestDelayJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.5}
	// The jittered delay for attempt n must stay within
	// [nominal*(1-jitter), nominal] of the un-jittered schedule.
	plain := Policy{Base: p.Base, Cap: p.Cap, Factor: p.Factor, Jitter: 0}
	for attempt := 1; attempt <= 6; attempt++ {
		nominal := plain.Delay("k", attempt)
		for _, key := range []string{"a", "b", "c", "d"} {
			got := p.Delay(key, attempt)
			lo := time.Duration(float64(nominal) * 0.5)
			if got < lo || got > nominal {
				t.Fatalf("attempt %d key %s: delay %v outside [%v, %v]", attempt, key, got, lo, nominal)
			}
		}
	}
}

func TestZeroPolicyUsable(t *testing.T) {
	var p Policy
	if d := p.Delay("k", 1); d != DefaultBase {
		t.Fatalf("zero policy attempt 1: %v, want %v (defaults, no jitter)", d, DefaultBase)
	}
	if d := p.Delay("k", 100); d != DefaultCap {
		t.Fatalf("zero policy attempt 100: %v, want default cap %v", d, DefaultCap)
	}
	dp := Default()
	if d := dp.Delay("k", 1); d <= 0 || d > DefaultBase {
		t.Fatalf("default policy attempt 1: %v, want in (0, %v]", d, DefaultBase)
	}
}

// TestDelayHugeAttemptNoOverflow guards the growth loop against float
// overflow turning a capped delay into garbage.
func TestDelayHugeAttemptNoOverflow(t *testing.T) {
	p := Policy{Base: time.Second, Cap: 30 * time.Second, Factor: 10, Jitter: 0}
	if got := p.Delay("k", 1_000_000); got != 30*time.Second {
		t.Fatalf("huge attempt: delay %v, want cap", got)
	}
}

// TestSleep: the wait runs its course under a live context and ends at
// once, with the context's error, under a cancelled one.
func TestSleep(t *testing.T) {
	start := time.Now()
	if err := Sleep(context.Background(), 5*time.Millisecond); err != nil || time.Since(start) < 5*time.Millisecond {
		t.Fatalf("Sleep returned %v after %s", err, time.Since(start))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) || time.Since(start) > 10*time.Second {
		t.Fatalf("Sleep under a cancelled context returned %v after %s", err, time.Since(start))
	}
}
