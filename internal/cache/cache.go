// Package cache implements the set-associative caches of the simulated
// GPU: the per-SM L1 data cache (write-evict / write-no-allocate) and the
// L2 partitions (write-back / write-allocate), with xor set indexing, LRU
// replacement, allocate-on-miss line reservation, MSHRs with merging and
// a miss queue.
//
// The package models the paper's central failure mode precisely: a miss
// needs an MSHR, a miss-queue entry and an allocatable (non-reserved)
// line; if any is unavailable, the access suffers a *reservation failure*
// and the memory pipeline stalls. Reservation failures are counted per
// kernel and per cause.
//
// It also implements UCP (utility-based cache partitioning) for the
// paper's Section 3.1 study: per-kernel UMON shadow tags and the
// lookahead partitioning algorithm, with way-quota enforcement during
// victim selection.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
)

// Result classifies the outcome of an Access.
type Result int

const (
	// Hit: data present; caller schedules completion after HitLatency.
	Hit Result = iota
	// HitPending: miss merged into an existing MSHR entry; the request
	// completes when the pending fill arrives.
	HitPending
	// Miss: MSHR and line reserved, fetch enqueued to the lower level;
	// the request completes when the fill arrives.
	Miss
	// Forwarded: the request was passed through to the lower level with
	// no local allocation (write-evict/write-no-allocate stores). The
	// request is complete from this cache's point of view.
	Forwarded
	// Bypassed: a load miss sent below without allocating (per-kernel
	// cache bypassing, Section 4.5). The original request travels down
	// and its response completes the instruction directly.
	Bypassed
	// ResFailMSHR, ResFailMissQueue, ResFailLine: reservation failures.
	// The access did not take place; the caller must retry and the
	// memory pipeline is considered stalled.
	ResFailMSHR
	ResFailMissQueue
	ResFailLine
)

// Failed reports whether r is any reservation-failure result.
func (r Result) Failed() bool { return r >= ResFailMSHR }

func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitPending:
		return "hit-pending"
	case Miss:
		return "miss"
	case Forwarded:
		return "forwarded"
	case Bypassed:
		return "bypassed"
	case ResFailMSHR:
		return "rsfail-mshr"
	case ResFailMissQueue:
		return "rsfail-missq"
	case ResFailLine:
		return "rsfail-line"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

type line struct {
	tag      uint64
	valid    bool
	reserved bool // allocated for an outstanding miss
	dirty    bool
	owner    int8 // kernel slot that allocated the line
	lru      uint64
}

type mshrEntry struct {
	lineAddr uint64
	targets  []*mem.Request
	set, way int
	isStore  bool       // WBWA store-miss entry: fill marks dirty, no response expected upward
	next     *mshrEntry // free-list link (entries are recycled across fills)
}

// KernelStats aggregates per-kernel cache statistics.
type KernelStats struct {
	Accesses   uint64 // successful probes (hit + merged + miss + forwarded)
	Hits       uint64
	Misses     uint64 // misses + merges (both count against miss rate)
	Merged     uint64
	Bypassed   uint64 // load misses sent below without allocation
	RsFail     uint64 // failed access attempts
	RsFailMSHR uint64
	RsFailMQ   uint64
	RsFailLine uint64
}

// MissRate returns the fraction of accesses that required a new line
// fetch. Requests merged into a pending MSHR entry (GPGPU-Sim's
// "hit_reserved") count as hits: their data arrives with the in-flight
// fill and they consume no new miss resources.
func (s KernelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses-s.Merged) / float64(s.Accesses)
}

// RsFailRate returns reservation failures per successful access, the
// paper's "l1d_rsfail_rate".
func (s KernelStats) RsFailRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RsFail) / float64(s.Accesses)
}

// Cache is one cache instance.
type Cache struct {
	cfg      config.Cache
	setMask  uint64
	setShift uint   // log2(sets): the xor-index fold distance
	lines    []line // sets*ways, row-major by set

	mshrMap  map[uint64]*mshrEntry
	mshrFree int
	// entryFree recycles mshrEntry records (and their targets storage)
	// across fills, keeping MSHR turnover allocation-free.
	entryFree *mshrEntry

	missQ    ring.Ring[*mem.Request] // pending fetch/forward requests toward the lower level
	missQCap int

	// Writeback queue for dirty evictions (write-back caches). Drained
	// via PopWriteback; if full, allocation fails with ResFailLine.
	wbQ    ring.Ring[*mem.Request]
	wbQCap int

	// Pool, when non-nil, supplies the fetch and writeback requests this
	// cache creates and receives the MSHR-target requests it retires.
	// The owner (SM for an L1, the GPU for an L2 partition) sets it; nil
	// falls back to plain allocation.
	Pool *mem.Pool

	lruClock uint64

	// UCP way partition: quota[k] = ways kernel k may occupy per set.
	// nil means unpartitioned.
	quota []int
	occ   []int // victim's per-kernel occupancy scratch under UCP

	// bypass[k]: kernel k's load misses skip allocation and go below
	// (Section 4.5's cache bypassing).
	bypass []bool

	umon *UMON

	numKernels int
	Stats      []KernelStats // indexed by kernel slot
	// TotalRsFailCycles counts cycles in which at least one access
	// attempt failed (set by the owner via the returned Result).
}

// New constructs a cache from cfg for up to numKernels kernel slots.
func New(cfg config.Cache, numKernels int) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		setMask:    uint64(sets - 1),
		setShift:   log2(sets),
		lines:      make([]line, sets*cfg.Ways),
		mshrMap:    make(map[uint64]*mshrEntry, cfg.MSHRs),
		mshrFree:   cfg.MSHRs,
		missQCap:   cfg.MissQueue,
		wbQCap:     8,
		occ:        make([]int, numKernels),
		numKernels: numKernels,
		Stats:      make([]KernelStats, numKernels),
	}
	return c
}

// log2 returns the smallest b with 1<<b >= n, for n >= 1.
func log2(n int) uint { return uint(bits.Len(uint(n - 1))) }

// setIndex maps a line address to a set, with optional xor folding of
// higher address bits (the "xor-indexing" of Table 1), which spreads
// power-of-two strides across sets.
func (c *Cache) setIndex(lineAddr uint64) int {
	if !c.cfg.XORIndex {
		return int(lineAddr & c.setMask)
	}
	h := lineAddr ^ lineAddr>>c.setShift ^ lineAddr>>(2*c.setShift)
	return int(h & c.setMask)
}

// probe looks up lineAddr; it returns the way index or -1.
func (c *Cache) probe(set int, lineAddr uint64) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == lineAddr {
			return w
		}
	}
	return -1
}

// victim selects a replaceable way in set for kernel k, honouring the UCP
// way quota when partitioning is enabled. It returns -1 when every line
// in the set is reserved (or quota enforcement leaves no candidate).
func (c *Cache) victim(set int, k int) int {
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
	// UCP enforcement: if kernel k is within its quota, evict from a
	// kernel that exceeds its quota; otherwise evict k's own LRU line.
	occ := c.occ
	clear(occ)
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
	// Find the LRU line among over-quota owners.
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

// lruVictim returns the LRU non-reserved way, optionally restricted to
// lines owned by kernel k (k < 0 means any owner), or -1.
func (c *Cache) lruVictim(set int, k int) int {
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

// Access performs one cache access. On reservation failure the cache
// state is unchanged and the caller must retry.
func (c *Cache) Access(req *mem.Request) Result {
	k := req.Kernel
	st := &c.Stats[k]
	set := c.setIndex(req.LineAddr)

	if c.umon != nil {
		c.umon.Access(k, req.LineAddr)
	}

	if w := c.probe(set, req.LineAddr); w >= 0 {
		ln := &c.lines[set*c.cfg.Ways+w]
		if ln.reserved {
			// Line is being fetched: merge into the MSHR entry.
			return c.merge(req, st)
		}
		if req.Kind == mem.Store && !c.cfg.WriteBack {
			// Write-evict: invalidate on write hit and forward the
			// store to the lower level.
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

	// Miss path.
	if req.Kind == mem.Store && !c.cfg.WriteBack {
		// Write-no-allocate: forward the store.
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
		_ = e
		return c.merge(req, st)
	}

	if k < len(c.bypass) && c.bypass[k] && req.Kind == mem.Load {
		// Bypass: ship the original request below; its response will
		// complete the instruction without filling this cache.
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
		// Write-validate: a coalesced store covers the whole line, so
		// allocate it dirty without fetching from below. Only the
		// eventual writeback reaches the lower level.
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

	// New miss: need MSHR + miss-queue slot + allocatable line.
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
	// Reserve the line for the incoming fill.
	c.lruClock++
	*ln = line{tag: req.LineAddr, valid: false, reserved: true, owner: int8(k), lru: c.lruClock}

	e := c.newEntry()
	e.lineAddr, e.set, e.way, e.isStore = req.LineAddr, set, w, req.Kind == mem.Store
	e.targets = append(e.targets, req)
	c.mshrMap[req.LineAddr] = e
	c.mshrFree--

	// The fetch sent below is a load for the full line regardless of the
	// triggering request's kind (WBWA store misses fetch-then-merge).
	fetch := c.Pool.Request()
	fetch.LineAddr = req.LineAddr
	fetch.Kind = mem.Load
	fetch.Kernel = k
	fetch.SM = req.SM
	fetch.Warp = req.Warp
	c.missQ.Push(fetch)
	st.Accesses++
	st.Misses++
	return Miss
}

// evictForAlloc queues the writeback of a dirty victim. It returns Hit
// on success or a reservation-failure result when the writeback queue is
// full (the allocation must be retried).
func (c *Cache) evictForAlloc(ln *line, smID int, st *KernelStats) Result {
	if ln.valid && ln.dirty && c.cfg.WriteBack {
		if c.wbQ.Len() >= c.wbQCap {
			st.RsFail++
			st.RsFailLine++
			return ResFailLine
		}
		wb := c.Pool.Request()
		wb.LineAddr = ln.tag
		wb.Kind = mem.Store
		wb.Kernel = int(ln.owner)
		wb.SM = smID
		c.wbQ.Push(wb)
	}
	return Hit
}

func (c *Cache) merge(req *mem.Request, st *KernelStats) Result {
	e, ok := c.mshrMap[req.LineAddr]
	if !ok {
		// A reserved line without an MSHR entry cannot happen by
		// construction; treat as MSHR failure defensively.
		st.RsFail++
		st.RsFailMSHR++
		return ResFailMSHR
	}
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

// PopMiss removes and returns the oldest pending fetch/forward request,
// or nil when the miss queue is empty.
func (c *Cache) PopMiss() *mem.Request {
	if r, ok := c.missQ.TryPop(); ok {
		return r
	}
	return nil
}

// PeekMiss returns the oldest pending request without removing it.
func (c *Cache) PeekMiss() *mem.Request {
	if c.missQ.Empty() {
		return nil
	}
	return c.missQ.Peek()
}

// PopWriteback removes and returns the oldest dirty-eviction writeback.
func (c *Cache) PopWriteback() *mem.Request {
	if r, ok := c.wbQ.TryPop(); ok {
		return r
	}
	return nil
}

// Fill delivers the line for lineAddr, validating the reserved line,
// releasing the MSHR entry and returning the merged target requests so
// the owner can complete them. Fill for an unknown address returns nil
// (e.g. a line invalidated by an intervening write-evict).
func (c *Cache) Fill(lineAddr uint64) []*mem.Request {
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
	// WBWA: merged stores dirty the line.
	if c.cfg.WriteBack {
		for _, t := range e.targets {
			if t.Kind == mem.Store {
				ln.dirty = true
			}
		}
	}
	targets := e.targets
	c.freeEntry(e)
	return targets
}

// newEntry takes an mshrEntry from the free list (or allocates one).
// Its targets slice is empty but keeps prior capacity.
func (c *Cache) newEntry() *mshrEntry {
	e := c.entryFree
	if e == nil {
		return &mshrEntry{}
	}
	c.entryFree = e.next
	e.next = nil
	return e
}

// freeEntry recycles an mshrEntry after its fill. The targets returned
// to the caller stay valid until the next miss allocates an entry, by
// which point the owner has retired them (fills are consumed in the
// same cycle they are delivered).
func (c *Cache) freeEntry(e *mshrEntry) {
	// Truncate without zeroing: the returned slice aliases this storage
	// and the caller is still consuming it. Stale pointers beyond the
	// next entry's length are overwritten by its appends.
	e.targets = e.targets[:0]
	e.next = c.entryFree
	c.entryFree = e
}

// Contains reports whether lineAddr is resident and valid, without
// touching replacement state.
func (c *Cache) Contains(lineAddr uint64) bool {
	set := c.setIndex(lineAddr)
	w := c.probe(set, lineAddr)
	if w < 0 {
		return false
	}
	ln := &c.lines[set*c.cfg.Ways+w]
	return ln.valid && !ln.reserved
}

// MSHRInUse returns the number of occupied MSHR entries.
func (c *Cache) MSHRInUse() int { return c.cfg.MSHRs - c.mshrFree }

// MissQueueLen returns the current miss queue occupancy.
func (c *Cache) MissQueueLen() int { return c.missQ.Len() }

// SetPartition installs a per-kernel way quota (UCP enforcement). Pass
// nil to disable partitioning.
func (c *Cache) SetPartition(quota []int) {
	if quota == nil {
		c.quota = nil
		return
	}
	q := make([]int, len(quota))
	copy(q, quota)
	c.quota = q
}

// Partition returns the active way quota, or nil.
func (c *Cache) Partition() []int { return c.quota }

// SetBypass installs the per-kernel L1 bypass policy (nil disables).
func (c *Cache) SetBypass(bypass []bool) {
	if bypass == nil {
		c.bypass = nil
		return
	}
	c.bypass = append([]bool(nil), bypass...)
}

// AttachUMON enables utility monitoring for UCP.
func (c *Cache) AttachUMON() *UMON {
	c.umon = NewUMON(c.cfg, c.numKernels)
	return c.umon
}

// UMONRef returns the attached utility monitor, or nil.
func (c *Cache) UMONRef() *UMON { return c.umon }

// ResetStats zeroes the per-kernel statistics (used after warmup).
func (c *Cache) ResetStats() {
	for i := range c.Stats {
		c.Stats[i] = KernelStats{}
	}
}
