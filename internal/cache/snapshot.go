// Snapshot/restore for caches and UMONs. A snapshot deep-copies every
// piece of mutable state — lines, MSHR entries with their merged target
// requests, the miss and writeback queues, partition/bypass policy and
// statistics — through the machine-wide mem.Cloner so cross-component
// request aliasing survives, and never references pooled storage
// (copy-on-snapshot: releasing the originals cannot poison a snapshot).

package cache

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// mshrSnapshot is one captured MSHR entry.
type mshrSnapshot struct {
	lineAddr uint64
	set, way int
	isStore  bool
	targets  []*mem.Request
}

// Snapshot is the captured state of one Cache. It is immutable once
// taken; Restore deep-copies out of it, so one snapshot can seed many
// caches.
type Snapshot struct {
	lines    []line
	mshr     []mshrSnapshot
	mshrFree int
	missQ    []*mem.Request
	wbQ      []*mem.Request
	lruClock uint64
	quota    []int
	bypass   []bool
	stats    []KernelStats
	umon     *umonSnapshot
}

type umonSnapshot struct {
	tags     [][]uint64
	valid    [][]bool
	wayHits  [][]uint64
	accesses []uint64
}

// Snapshot captures the cache's full state. cl must be the snapshot
// operation's machine-wide cloner.
func (c *Cache) Snapshot(cl *mem.Cloner) *Snapshot {
	sn := &Snapshot{
		lines:    append([]line(nil), c.lines...),
		mshrFree: c.mshrFree,
		missQ:    c.missQ.Snapshot(cl.Request),
		wbQ:      c.wbQ.Snapshot(cl.Request),
		lruClock: c.lruClock,
		quota:    append([]int(nil), c.quota...),
		bypass:   append([]bool(nil), c.bypass...),
		stats:    append([]KernelStats(nil), c.Stats...),
	}
	// The MSHR list is sorted by line address: two identical runs must
	// produce byte-identical encoded snapshots (checkpoint digests are
	// compared across worker configurations and across resumed runs),
	// whichever slab slots and ways their histories handed out.
	for i := range c.lines {
		if !c.lines[i].reserved {
			continue
		}
		e := &c.entries[c.entOf[i]]
		ms := mshrSnapshot{lineAddr: e.lineAddr, set: e.set, way: e.way, isStore: e.isStore}
		for _, t := range e.targets {
			ms.targets = append(ms.targets, cl.Request(t))
		}
		sn.mshr = append(sn.mshr, ms)
	}
	slices.SortFunc(sn.mshr, func(a, b mshrSnapshot) int { return cmp.Compare(a.lineAddr, b.lineAddr) })
	if c.umon != nil {
		sn.umon = c.umon.snapshot()
	}
	return sn
}

// Restore overwrites the cache's state from sn, deep-copying through cl
// (the restore operation's machine-wide cloner) so the cache never
// shares storage with the snapshot or with other restored caches. The
// cache must have the geometry the snapshot was taken from.
func (c *Cache) Restore(sn *Snapshot, cl *mem.Cloner) error {
	if len(sn.lines) != len(c.lines) {
		return fmt.Errorf("cache: restore: snapshot has %d lines, cache has %d (geometry mismatch)",
			len(sn.lines), len(c.lines))
	}
	if len(sn.stats) != c.numKernels {
		return fmt.Errorf("cache: restore: snapshot has %d kernel slots, cache has %d",
			len(sn.stats), c.numKernels)
	}
	if len(sn.mshr) > len(c.entries) {
		return fmt.Errorf("cache: restore: snapshot has %d MSHR entries, cache has %d MSHRs",
			len(sn.mshr), len(c.entries))
	}
	for _, ms := range sn.mshr {
		at := ms.set*c.cfg.Ways + ms.way
		if ms.way < 0 || ms.way >= c.cfg.Ways || at < 0 || at >= len(sn.lines) ||
			!sn.lines[at].reserved || sn.lines[at].tag != ms.lineAddr {
			return fmt.Errorf("cache: restore: MSHR entry for line %#x names set %d way %d, which it did not reserve",
				ms.lineAddr, ms.set, ms.way)
		}
	}
	copy(c.lines, sn.lines)
	// The tag index, the line-to-slot map and the memo are derived state:
	// rebuilt (or dropped) here, never read from the snapshot.
	for i := range c.lines {
		c.tags[i] = noTag
		if ln := &c.lines[i]; ln.valid || ln.reserved {
			c.tags[i] = ln.tag
		}
	}
	c.resetEntries()
	for _, ms := range sn.mshr {
		e := c.takeSlot(ms.set*c.cfg.Ways + ms.way)
		e.lineAddr, e.set, e.way, e.isStore = ms.lineAddr, ms.set, ms.way, ms.isStore
		for _, t := range ms.targets {
			e.targets = append(e.targets, cl.Request(t))
		}
	}
	c.memo.armed = false
	c.mshrFree = sn.mshrFree
	c.missQ.Restore(sn.missQ, cl.Request)
	c.wbQ.Restore(sn.wbQ, cl.Request)
	c.lruClock = sn.lruClock
	c.quota = append([]int(nil), sn.quota...)
	if sn.quota == nil {
		c.quota = nil
	}
	c.bypass = append([]bool(nil), sn.bypass...)
	if sn.bypass == nil {
		c.bypass = nil
	}
	copy(c.Stats, sn.stats)
	if sn.umon != nil {
		if c.umon == nil {
			c.AttachUMON()
		}
		c.umon.restore(sn.umon)
	} else {
		c.umon = nil
	}
	return nil
}

// PendingRequests returns how many requests the cache's queues and MSHR
// targets currently hold (snapshot-footprint accounting).
func (c *Cache) PendingRequests() int {
	n := c.missQ.Len() + c.wbQ.Len()
	for i := range c.entries {
		n += len(c.entries[i].targets) // a free slot's targets are empty
	}
	return n
}

func (u *UMON) snapshot() *umonSnapshot {
	sn := &umonSnapshot{accesses: append([]uint64(nil), u.accesses...)}
	for k := range u.tags {
		sn.tags = append(sn.tags, append([]uint64(nil), u.tags[k]...))
		sn.valid = append(sn.valid, append([]bool(nil), u.valid[k]...))
		sn.wayHits = append(sn.wayHits, append([]uint64(nil), u.wayHits[k]...))
	}
	return sn
}

func (u *UMON) restore(sn *umonSnapshot) {
	for k := range u.tags {
		copy(u.tags[k], sn.tags[k])
		copy(u.valid[k], sn.valid[k])
		copy(u.wayHits[k], sn.wayHits[k])
	}
	copy(u.accesses, sn.accesses)
}
