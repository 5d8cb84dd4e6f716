package cache

import (
	"fmt"

	"repro/internal/mem"
)

// StallMemoArmed reports whether the cache currently holds a remembered
// reservation failure (snapshot tests pick a cycle where some do).
func (c *Cache) StallMemoArmed() bool { return c.memo.armed }

// CheckIndex recomputes the cache's derived state and compares (the
// invariant watchdog's cache-index rule): the tag index mirrors lines;
// reserved lines and in-use MSHR slots pair up one to one, each slot
// naming its line; the free list holds the other mshrFree slots; and an
// armed stall memo still holds the result a full evaluation gives. That
// evaluation is legal because a failing access has no side effect; on a
// stale memo it may succeed and change the cache, and the violation it
// reports ends the run.
func (c *Cache) CheckIndex() error {
	reserved := 0
	for i := range c.lines {
		ln := &c.lines[i]
		want := ln.tag
		if !ln.valid && !ln.reserved {
			want = noTag
		}
		if c.tags[i] != want {
			return fmt.Errorf("set %d way %d: tag index holds %#x, line state says %#x",
				i/c.cfg.Ways, i%c.cfg.Ways, c.tags[i], want)
		}
		if !ln.reserved {
			continue
		}
		reserved++
		slot := c.entOf[i]
		if slot < 0 || int(slot) >= len(c.entries) {
			return fmt.Errorf("set %d way %d: reserved line maps to MSHR slot %d of %d",
				i/c.cfg.Ways, i%c.cfg.Ways, slot, len(c.entries))
		}
		if e := &c.entries[slot]; e.lineAddr != ln.tag || e.set*c.cfg.Ways+e.way != i {
			return fmt.Errorf("set %d way %d: reserved for line %#x, its MSHR slot %d holds line %#x at set %d way %d",
				i/c.cfg.Ways, i%c.cfg.Ways, ln.tag, slot, e.lineAddr, e.set, e.way)
		}
	}
	free := 0
	for slot := c.entFree; slot >= 0 && int(slot) < len(c.entries) && free <= len(c.entries); slot = c.entries[slot].next {
		free++
	}
	if inUse := len(c.entries) - c.mshrFree; reserved != inUse || free != c.mshrFree {
		return fmt.Errorf("%d reserved lines and %d free MSHR slots, mshrFree says %d in use and %d free",
			reserved, free, inUse, c.mshrFree)
	}
	if m := &c.memo; m.armed {
		req := mem.Request{LineAddr: m.lineAddr, Kind: m.kind, Kernel: m.kernel, SM: m.sm}
		if res := c.access(&req); res != m.res {
			return fmt.Errorf("stall memo answers %v for line %#x (%v, kernel %d), a full evaluation gives %v",
				m.res, m.lineAddr, m.kind, m.kernel, res)
		}
	}
	return nil
}
