package cache

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestCheckInvariantsDetectsStaleCacheIndex breaks each piece of derived
// state the way a missed update would and requires CheckIndex — the
// watchdog's cache-index rule — to report it rather than panic or stay
// silent. A stale tag or slot is otherwise a line that can never hit or
// an MSHR that can never be granted again; a stale memo is a request
// refused forever.
func TestCheckInvariantsDetectsStaleCacheIndex(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cache)
		want    string // what the report must name
	}{
		{"tag not cleared on write-evict", func(c *Cache) {
			c.lines[c.find(0, 0)].valid = false
		}, "tag index"},
		{"entry left on a filled line", func(c *Cache) {
			ln := &c.lines[c.find(c.setIndex(1)*c.cfg.Ways, 1)]
			ln.reserved, ln.valid = false, true
		}, "reserved lines"},
		{"mshrFree off by one", func(c *Cache) { c.mshrFree++ }, "mshrFree"},
		{"memo not invalidated by PopMiss", func(c *Cache) { c.missQ.Pop() }, "stall memo"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smallL1()
			// Line 0 resident, lines 1 and 2 pending with their fetches
			// filling the miss queue, line 3 refused and remembered.
			c.Access(load(0, 0))
			c.PopMiss()
			c.Fill(0)
			c.Access(load(0, 1))
			c.Access(load(0, 2))
			if res := c.Access(load(0, 3)); res != ResFailMissQueue || !c.StallMemoArmed() {
				t.Fatalf("setup: access = %v, memo armed = %v", res, c.StallMemoArmed())
			}
			if err := c.CheckIndex(); err != nil {
				t.Fatalf("healthy cache flagged: %v", err)
			}
			tc.corrupt(c)
			err := c.CheckIndex()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stale index not reported as %q: %v", tc.want, err)
			}
		})
	}
}

// TestRestoreDropsStallMemo: a cache that remembers a refusal and is then
// restored from a snapshot in which the same request would succeed must
// evaluate it afresh.
func TestRestoreDropsStallMemo(t *testing.T) {
	c := smallL1()
	empty := smallL1().Snapshot(mem.NewCloner())
	c.Access(load(0, 1))
	c.Access(load(0, 2))
	if res := c.Access(load(0, 3)); res != ResFailMissQueue || !c.StallMemoArmed() {
		t.Fatalf("setup: access = %v, memo armed = %v", res, c.StallMemoArmed())
	}
	if err := c.Restore(empty, mem.NewCloner()); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckIndex(); err != nil {
		t.Fatalf("restored cache flagged: %v", err)
	}
	if res := c.Access(load(0, 3)); res != Miss {
		t.Fatalf("access after restoring an empty cache = %v, want Miss", res)
	}
}
