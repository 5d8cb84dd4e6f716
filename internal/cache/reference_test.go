package cache

import (
	"slices"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
)

// refCache is the cache as it was before the tag index, the MSHR slab
// and the stall memo: array-of-structs lines probed for valid tags only,
// MSHR entries in a map keyed by line address, a two-pass victim search
// and a full evaluation of every attempt. It is the reference the
// generated-stream tests hold Cache to, result by result and snapshot
// byte by snapshot byte.
type refCache struct {
	cfg      config.Cache
	setMask  uint64
	setShift uint
	lines    []line

	mshrMap  map[uint64]*refEntry
	mshrFree int

	missQ    ring.Ring[*mem.Request]
	missQCap int
	wbQ      ring.Ring[*mem.Request]
	wbQCap   int

	lruClock uint64
	quota    []int
	bypass   []bool
	umon     *UMON
	stats    []KernelStats
}

type refEntry struct {
	lineAddr uint64
	targets  []*mem.Request
	set, way int
	isStore  bool
}

func newRefCache(cfg config.Cache, numKernels int) *refCache {
	sets := cfg.Sets()
	return &refCache{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		setShift: log2(sets),
		lines:    make([]line, sets*cfg.Ways),
		mshrMap:  make(map[uint64]*refEntry, cfg.MSHRs),
		mshrFree: cfg.MSHRs,
		missQCap: cfg.MissQueue,
		wbQCap:   8,
		stats:    make([]KernelStats, numKernels),
	}
}

func (c *refCache) setIndex(lineAddr uint64) int {
	if !c.cfg.XORIndex {
		return int(lineAddr & c.setMask)
	}
	h := lineAddr ^ lineAddr>>c.setShift ^ lineAddr>>(2*c.setShift)
	return int(h & c.setMask)
}

func (c *refCache) probe(set int, lineAddr uint64) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == lineAddr {
			return w
		}
	}
	return -1
}

func (c *refCache) victim(set int, k int) int {
	base := set * c.cfg.Ways
	// Invalid line first.
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.lines[base+w].valid && !c.lines[base+w].reserved {
			return w
		}
	}
	if c.quota == nil || k >= len(c.quota) {
		return c.lruVictim(set, -1)
	}
	occ := make([]int, len(c.stats))
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid || ln.reserved {
			if int(ln.owner) < len(occ) {
				occ[ln.owner]++
			}
		}
	}
	if occ[k] >= c.quota[k] {
		if w := c.lruVictim(set, k); w >= 0 {
			return w
		}
		return c.lruVictim(set, -1)
	}
	best, bestLRU := -1, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.reserved {
			continue
		}
		o := int(ln.owner)
		if o < len(occ) && occ[o] > c.quota[o] && ln.lru < bestLRU {
			best, bestLRU = w, ln.lru
		}
	}
	if best >= 0 {
		return best
	}
	return c.lruVictim(set, -1)
}

func (c *refCache) lruVictim(set int, k int) int {
	base := set * c.cfg.Ways
	best, bestLRU := -1, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.reserved {
			continue
		}
		if k >= 0 && int(ln.owner) != k {
			continue
		}
		if ln.lru < bestLRU {
			best, bestLRU = w, ln.lru
		}
	}
	return best
}

func (c *refCache) Access(req *mem.Request) Result {
	k := req.Kernel
	st := &c.stats[k]
	set := c.setIndex(req.LineAddr)

	if c.umon != nil {
		c.umon.Access(k, req.LineAddr)
	}

	if w := c.probe(set, req.LineAddr); w >= 0 {
		ln := &c.lines[set*c.cfg.Ways+w]
		if req.Kind == mem.Store && !c.cfg.WriteBack {
			if c.missQ.Len() >= c.missQCap {
				st.RsFail++
				st.RsFailMQ++
				return ResFailMissQueue
			}
			ln.valid = false
			c.missQ.Push(req)
			st.Accesses++
			st.Hits++
			return Forwarded
		}
		c.lruClock++
		ln.lru = c.lruClock
		if req.Kind == mem.Store {
			ln.dirty = true
		}
		st.Accesses++
		st.Hits++
		return Hit
	}

	if req.Kind == mem.Store && !c.cfg.WriteBack {
		if c.missQ.Len() >= c.missQCap {
			st.RsFail++
			st.RsFailMQ++
			return ResFailMissQueue
		}
		c.missQ.Push(req)
		st.Accesses++
		st.Misses++
		return Forwarded
	}

	if e, ok := c.mshrMap[req.LineAddr]; ok {
		if len(e.targets) >= c.cfg.MSHRMerge {
			st.RsFail++
			st.RsFailMSHR++
			return ResFailMSHR
		}
		e.targets = append(e.targets, req)
		st.Accesses++
		st.Misses++
		st.Merged++
		return HitPending
	}

	if k < len(c.bypass) && c.bypass[k] && req.Kind == mem.Load {
		if c.missQ.Len() >= c.missQCap {
			st.RsFail++
			st.RsFailMQ++
			return ResFailMissQueue
		}
		c.missQ.Push(req)
		st.Accesses++
		st.Misses++
		st.Bypassed++
		return Bypassed
	}

	if req.Kind == mem.Store && c.cfg.WriteBack {
		w := c.victim(set, k)
		if w < 0 {
			st.RsFail++
			st.RsFailLine++
			return ResFailLine
		}
		ln := &c.lines[set*c.cfg.Ways+w]
		if res := c.evictForAlloc(ln, req.SM, st); res != Hit {
			return res
		}
		c.lruClock++
		*ln = line{tag: req.LineAddr, valid: true, dirty: true, owner: int8(k), lru: c.lruClock}
		st.Accesses++
		st.Misses++
		return Hit
	}

	if c.mshrFree == 0 {
		st.RsFail++
		st.RsFailMSHR++
		return ResFailMSHR
	}
	if c.missQ.Len() >= c.missQCap {
		st.RsFail++
		st.RsFailMQ++
		return ResFailMissQueue
	}
	w := c.victim(set, k)
	if w < 0 {
		st.RsFail++
		st.RsFailLine++
		return ResFailLine
	}
	ln := &c.lines[set*c.cfg.Ways+w]
	if res := c.evictForAlloc(ln, req.SM, st); res != Hit {
		return res
	}
	c.lruClock++
	*ln = line{tag: req.LineAddr, valid: false, reserved: true, owner: int8(k), lru: c.lruClock}

	c.mshrMap[req.LineAddr] = &refEntry{
		lineAddr: req.LineAddr, set: set, way: w, isStore: req.Kind == mem.Store,
		targets: []*mem.Request{req},
	}
	c.mshrFree--

	c.missQ.Push(&mem.Request{LineAddr: req.LineAddr, Kind: mem.Load, Kernel: k, SM: req.SM, Warp: req.Warp})
	st.Accesses++
	st.Misses++
	return Miss
}

func (c *refCache) evictForAlloc(ln *line, smID int, st *KernelStats) Result {
	if ln.valid && ln.dirty && c.cfg.WriteBack {
		if c.wbQ.Len() >= c.wbQCap {
			st.RsFail++
			st.RsFailLine++
			return ResFailLine
		}
		c.wbQ.Push(&mem.Request{LineAddr: ln.tag, Kind: mem.Store, Kernel: int(ln.owner), SM: smID})
	}
	return Hit
}

func (c *refCache) PopMiss() *mem.Request {
	r, _ := c.missQ.TryPop()
	return r
}

func (c *refCache) PopWriteback() *mem.Request {
	r, _ := c.wbQ.TryPop()
	return r
}

func (c *refCache) Fill(lineAddr uint64) []*mem.Request {
	e, ok := c.mshrMap[lineAddr]
	if !ok {
		return nil
	}
	delete(c.mshrMap, lineAddr)
	c.mshrFree++
	ln := &c.lines[e.set*c.cfg.Ways+e.way]
	if ln.reserved && ln.tag == lineAddr {
		ln.reserved = false
		ln.valid = true
		ln.dirty = e.isStore && c.cfg.WriteBack
		c.lruClock++
		ln.lru = c.lruClock
	}
	if c.cfg.WriteBack {
		for _, t := range e.targets {
			if t.Kind == mem.Store {
				ln.dirty = true
			}
		}
	}
	return e.targets
}

func (c *refCache) SetPartition(quota []int) { c.quota = slices.Clone(quota) }
func (c *refCache) SetBypass(bypass []bool)  { c.bypass = slices.Clone(bypass) }
func (c *refCache) AttachUMON()              { c.umon = NewUMON(c.cfg, len(c.stats)) }

// Snapshot captures the reference's state in the package's Snapshot
// shape, MSHR entries sorted by line address.
func (c *refCache) Snapshot(cl *mem.Cloner) *Snapshot {
	sn := &Snapshot{
		lines:    slices.Clone(c.lines),
		mshrFree: c.mshrFree,
		missQ:    c.missQ.Snapshot(cl.Request),
		wbQ:      c.wbQ.Snapshot(cl.Request),
		lruClock: c.lruClock,
		quota:    append([]int(nil), c.quota...),
		bypass:   append([]bool(nil), c.bypass...),
		stats:    slices.Clone(c.stats),
	}
	addrs := make([]uint64, 0, len(c.mshrMap))
	for a := range c.mshrMap {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		e := c.mshrMap[a]
		ms := mshrSnapshot{lineAddr: e.lineAddr, set: e.set, way: e.way, isStore: e.isStore}
		for _, t := range e.targets {
			ms.targets = append(ms.targets, cl.Request(t))
		}
		sn.mshr = append(sn.mshr, ms)
	}
	if c.umon != nil {
		sn.umon = c.umon.snapshot()
	}
	return sn
}
