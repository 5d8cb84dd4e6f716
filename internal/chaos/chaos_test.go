package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sm"
)

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, PanicProb: 0.3, HangProb: 0.3, JournalProb: 0.2, InvariantProb: 0.1}
	a, b := New(cfg), New(cfg)
	keys := []string{"j1-aaa", "j1-bbb", "j1-ccc", "j1-ddd", "j1-eee", "j1-fff"}
	seen := map[Kind]bool{}
	for _, k := range keys {
		pa, pb := a.Plan(k), b.Plan(k)
		if pa != pb {
			t.Fatalf("key %s: plan differs across injectors: %s vs %s", k, pa, pb)
		}
		seen[pa] = true
	}
	// A different seed must reshuffle at least one key's fate.
	c := New(Config{Seed: 43, PanicProb: 0.3, HangProb: 0.3, JournalProb: 0.2, InvariantProb: 0.1})
	moved := false
	for _, k := range keys {
		if c.Plan(k) != a.Plan(k) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("changing the seed changed no plan: selection is not seed-driven")
	}
}

func TestPlanExhaustiveProbability(t *testing.T) {
	inj := New(Config{Seed: 1, PanicProb: 1})
	for _, k := range []string{"x", "y", "z"} {
		if got := inj.Plan(k); got != KindPanic {
			t.Fatalf("panic=1: key %s planned %s", k, got)
		}
	}
	none := New(Config{Seed: 1})
	for _, k := range []string{"x", "y", "z"} {
		if got := none.Plan(k); got != KindNone {
			t.Fatalf("disabled injector planned %s for %s", got, k)
		}
	}
}

// TestFailureBudget pins the fails-then-recovers shape: a selected key
// injects exactly Failures faults, then behaves normally forever.
func TestFailureBudget(t *testing.T) {
	inj := New(Config{Seed: 7, PanicProb: 1, Failures: 2})
	ctx := context.Background()
	panics := 0
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			if err := inj.JobFault(ctx, 0, "key"); err != nil {
				t.Fatalf("panic plan returned error: %v", err)
			}
		}()
	}
	if panics != 2 {
		t.Fatalf("injected %d panics, want exactly 2", panics)
	}
	if got := inj.Counts()[KindPanic]; got != 2 {
		t.Fatalf("Counts()[panic] = %d, want 2", got)
	}
}

func TestHangRespectsContext(t *testing.T) {
	inj := New(Config{Seed: 7, HangProb: 1, Hang: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.JobFault(ctx, 3, "key")
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang did not release on context expiry")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang error = %v, want context.DeadlineExceeded in chain", err)
	}
	if !strings.Contains(err.Error(), "injected hang") {
		t.Fatalf("hang error not attributed: %v", err)
	}
}

func TestInvariantFaultTyped(t *testing.T) {
	inj := New(Config{Seed: 7, InvariantProb: 1})
	err := inj.JobFault(context.Background(), 1, "key")
	var ie *sm.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("invariant fault is %T, want *sm.InvariantError", err)
	}
	if ie.Rule != "chaos-injected" {
		t.Fatalf("rule = %q", ie.Rule)
	}
	// Budget spent: the retry must succeed.
	if err := inj.JobFault(context.Background(), 1, "key"); err != nil {
		t.Fatalf("second attempt still faulted: %v", err)
	}
}

func TestJournalFaultOnlyForJournalPlan(t *testing.T) {
	inj := New(Config{Seed: 7, JournalProb: 1, Failures: 1})
	if err := inj.JournalFault("sync", "key"); err == nil {
		t.Fatal("journal fault not injected for journal-planned key")
	}
	if err := inj.JournalFault("sync", "key"); err != nil {
		t.Fatalf("budget ignored: %v", err)
	}
	// A panic-planned key must not fault journal writes, and vice versa.
	pinj := New(Config{Seed: 7, PanicProb: 1})
	if err := pinj.JournalFault("sync", "key"); err != nil {
		t.Fatalf("panic-planned key faulted a journal write: %v", err)
	}
	jinj := New(Config{Seed: 7, JournalProb: 1})
	if err := jinj.JobFault(context.Background(), 0, "key"); err != nil {
		t.Fatalf("journal-planned key faulted the job itself: %v", err)
	}
}

func TestParse(t *testing.T) {
	cfg, err := Parse("panic=0.5, hang=0.25, journal=0.1, invariant=0.05, seed=42, failures=3, hangdur=2s")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, PanicProb: 0.5, HangProb: 0.25, JournalProb: 0.1,
		InvariantProb: 0.05, Hang: 2 * time.Second, Failures: 3}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config not enabled")
	}
	if c, err := Parse(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v, want disabled, nil", c, err)
	}
	for _, bad := range []string{
		"panic", "panic=2", "panic=-0.1", "panic=x", "seed=-1", "seed=abc",
		"failures=0", "failures=x", "hangdur=0", "hangdur=x", "bogus=1",
		"cache=0.1", // the one store fault kind is journal
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
