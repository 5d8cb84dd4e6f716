package journal

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/chaos"
	"repro/internal/resultcache"
)

// TestAppendFaultAtomic pins the append atomicity contract on both
// failure points: after a failed write or sync, the key is absent from
// the index, the file bytes are identical to the pre-append state, and
// the journal keeps accepting later appends.
func TestAppendFaultAtomic(t *testing.T) {
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			path := tmpJournal(t)
			j, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.Append("good", point{WS: 1.5}); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			failOp := op
			j.FaultHook = func(o, key string) error {
				if o == failOp && key == "bad" {
					return fmt.Errorf("injected %s error", o)
				}
				return nil
			}
			err = j.Append("bad", point{WS: 2})
			var we *resultcache.WriteError
			if !errors.As(err, &we) {
				t.Fatalf("append error is %T (%v), want *WriteError", err, err)
			}
			if we.Key != "bad" || we.Op != op || we.Path != path {
				t.Fatalf("WriteError attribution: %+v", we)
			}
			if _, ok := raw(j, "bad"); ok {
				t.Fatal("failed append recorded in the index")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatalf("file changed by failed append:\nbefore: %q\nafter:  %q", before, after)
			}

			// The journal must remain usable and consistent on disk.
			if err := j.Append("later", point{WS: 3}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			_, good := raw(j2, "good")
			_, later := raw(j2, "later")
			_, bad := raw(j2, "bad")
			if !good || !later || bad {
				t.Fatalf("reopened index diverged: good=%v later=%v bad=%v", good, later, bad)
			}
		})
	}
}

// TestAppendChaosDiskError wires the deterministic chaos injector in as
// the disk-fault source: the first append of a journal-planned key fails
// with a typed *WriteError and no index/file divergence; the retry (the
// injector's budget spent) succeeds and is durable.
func TestAppendChaosDiskError(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 11, JournalProb: 1, Failures: 1})
	path := tmpJournal(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.FaultHook = inj.JournalFault

	err = j.Append("k1", point{WS: 1.25, Cells: []int{1, 2}})
	var we *resultcache.WriteError
	if !errors.As(err, &we) {
		t.Fatalf("chaos-faulted append returned %T (%v), want *WriteError", err, err)
	}
	if _, ok := raw(j, "k1"); ok {
		t.Fatal("faulted append left k1 in the index")
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("faulted append left %d bytes on disk", len(data))
	}

	// Retry: the injector's per-key budget is spent, so this succeeds.
	if err := j.Append("k1", point{WS: 1.25, Cells: []int{1, 2}}); err != nil {
		t.Fatalf("retry after chaos fault: %v", err)
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got point
	if ok, _ := j2.Lookup("k1", &got); !ok || got.WS != 1.25 {
		t.Fatalf("retried append not durable: ok=%v got=%+v", true, got)
	}
	if n := inj.Counts()[chaos.KindJournal]; n != 1 {
		t.Fatalf("injector reports %d journal faults, want 1", n)
	}
}
