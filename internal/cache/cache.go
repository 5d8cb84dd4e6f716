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
// The stalled pipeline retries every cycle, so a failure is also the
// package's most frequent call. Lookups are arranged for that: one scan
// of a compact per-set tag array finds a line whether it is resident or
// still being fetched; the MSHR entry of a pending line is found through
// the line it reserved (an entry lives exactly as long as that
// reservation, so there is no second index); and the retry of the
// request that failed last, against a cache nothing has changed since,
// is answered from a one-entry stall memo. Tag array, line-to-entry map
// and memo are derived state: rebuilt or dropped by Restore, absent from
// Snapshot, recomputed by CheckIndex. reference_test.go keeps the
// probe-and-map implementation they replaced as the test reference.
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

// line is one way of one set: the cache's authoritative per-line state
// and, unchanged, the record a Snapshot stores. A line is free when it
// is neither valid nor reserved; a free line keeps the tag it last held.
type line struct {
	tag      uint64
	valid    bool
	reserved bool // allocated for an outstanding miss
	dirty    bool
	owner    int8 // kernel slot that allocated the line
	lru      uint64
}

// noTag marks a free way in the tag index. Line addresses are byte
// addresses divided by the line size, so no request carries it.
const noTag = ^uint64(0)

// mshrEntry is one slot of the MSHR slab. A slot is in use exactly as
// long as the line it reserved stays reserved, so the line's way is the
// index that finds it (Cache.entOf).
type mshrEntry struct {
	lineAddr uint64
	targets  []*mem.Request
	set, way int
	isStore  bool  // WBWA store-miss entry: fill marks dirty, no response expected upward
	next     int32 // free-list link (slots and their targets storage are recycled across fills)
}

// stallMemo remembers the last reservation failure. A failing access
// changes nothing but Stats and the UMON, so until a mutator runs, the
// same request fails the same way and Access answers it without looking
// at the cache. Keyed by value: requests are pooled and their pointers
// recycled.
type stallMemo struct {
	armed    bool
	kind     mem.Kind
	res      Result
	kernel   int
	sm       int
	lineAddr uint64
}

// holds reports whether the memo is armed for exactly this request.
func (m *stallMemo) holds(req *mem.Request) bool {
	return m.armed && m.lineAddr == req.LineAddr && m.kind == req.Kind && m.kernel == req.Kernel && m.sm == req.SM
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

// Add adds o's counts to s.
func (s *KernelStats) Add(o *KernelStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Merged += o.Merged
	s.Bypassed += o.Bypassed
	s.RsFail += o.RsFail
	s.RsFailMSHR += o.RsFailMSHR
	s.RsFailMQ += o.RsFailMQ
	s.RsFailLine += o.RsFailLine
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

	// tags[i] is lines[i].tag while line i is valid or reserved and noTag
	// while it is free: the one array a lookup scans (16 ways = 128 B).
	// entOf[i] is the MSHR slab slot of reserved line i (meaningless
	// otherwise). Both are derived from lines and the slab: maintained
	// where lines change, rebuilt by Restore, absent from Snapshot.
	tags  []uint64
	entOf []int32

	// entries is the MSHR slab, cfg.MSHRs slots; entFree heads the free
	// list (-1 when every slot is in use) and mshrFree is its length.
	entries  []mshrEntry
	entFree  int32
	mshrFree int

	memo stallMemo

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
}

// New constructs a cache from cfg for up to numKernels kernel slots.
func New(cfg config.Cache, numKernels int) *Cache {
	c := new(Cache)
	c.Init(cfg, numKernels)
	return c
}

// Init makes c the cache New returns, in the memory c already holds
// where that is large enough (see gpu.New): line, tag and slot arrays,
// the MSHR slab with its entries' target storage, both queues' buffers.
// Everything else, the owner's Pool included, is zero again.
func (c *Cache) Init(cfg config.Cache, numKernels int) {
	sets := cfg.Sets()
	c.missQ.Reset()
	c.wbQ.Reset()
	*c = Cache{
		cfg:        cfg,
		setMask:    uint64(sets - 1),
		setShift:   log2(sets),
		lines:      ring.Zeroed(c.lines, sets*cfg.Ways),
		tags:       ring.Zeroed(c.tags, sets*cfg.Ways),
		entOf:      ring.Zeroed(c.entOf, sets*cfg.Ways),
		entries:    ring.Kept(c.entries, cfg.MSHRs),
		mshrFree:   cfg.MSHRs,
		missQ:      c.missQ,
		missQCap:   cfg.MissQueue,
		wbQ:        c.wbQ,
		wbQCap:     8,
		occ:        ring.Zeroed(c.occ, numKernels),
		numKernels: numKernels,
		Stats:      ring.Zeroed(c.Stats, numKernels),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	c.resetEntries()
}

// resetEntries puts every slab slot on the free list, lowest slot first,
// with no targets and its target storage kept.
func (c *Cache) resetEntries() {
	for i := range c.entries {
		e := &c.entries[i]
		*e = mshrEntry{targets: ring.Zeroed(e.targets, 0), next: int32(i) + 1}
	}
	c.entFree = -1
	if n := len(c.entries); n > 0 {
		c.entries[n-1].next = -1
		c.entFree = 0
	}
}

// takeSlot moves the head of the slab's free list to reserved line at
// and returns it; the caller accounts for it in mshrFree.
func (c *Cache) takeSlot(at int) *mshrEntry {
	slot := c.entFree
	e := &c.entries[slot]
	c.entFree = e.next
	c.entOf[at] = slot
	return e
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

// find returns the index into lines of the valid or reserved line
// holding lineAddr in the set starting at base, or -1. At most one line
// of a set holds an address: an access to a held address hits or merges,
// it never allocates a second line.
func (c *Cache) find(base int, lineAddr uint64) int {
	for w, tag := range c.tags[base : base+c.cfg.Ways] {
		if tag == lineAddr {
			return base + w
		}
	}
	return -1
}

// victim selects a replaceable line in the set starting at base for
// kernel k — the first free way, else the LRU valid line — honouring the
// UCP way quota when partitioning is enabled. It returns -1 when every
// line in the set is reserved (or quota enforcement leaves no candidate).
func (c *Cache) victim(base int, k int) int {
	if c.quota == nil || k >= len(c.quota) {
		best, bestLRU := -1, ^uint64(0)
		for i := base; i < base+c.cfg.Ways; i++ {
			if c.tags[i] == noTag {
				return i
			}
			if ln := &c.lines[i]; !ln.reserved && ln.lru < bestLRU {
				best, bestLRU = i, ln.lru
			}
		}
		return best
	}
	// UCP enforcement: if kernel k is within its quota, evict from a
	// kernel that exceeds its quota; otherwise evict k's own LRU line.
	occ := c.occ
	clear(occ)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.tags[i] == noTag {
			return i
		}
		if o := int(c.lines[i].owner); o < len(occ) {
			occ[o]++
		}
	}
	if occ[k] >= c.quota[k] {
		if i := c.lruVictim(base, k); i >= 0 {
			return i
		}
		return c.lruVictim(base, -1)
	}
	// Find the LRU line among over-quota owners.
	best, bestLRU := -1, ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.reserved {
			continue
		}
		o := int(ln.owner)
		if o < len(occ) && occ[o] > c.quota[o] && ln.lru < bestLRU {
			best, bestLRU = i, ln.lru
		}
	}
	if best >= 0 {
		return best
	}
	return c.lruVictim(base, -1)
}

// lruVictim returns the LRU non-reserved line of a set without free
// ways, optionally restricted to lines owned by kernel k (k < 0 means any
// owner), or -1.
func (c *Cache) lruVictim(base int, k int) int {
	best, bestLRU := -1, ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.reserved {
			continue
		}
		if k >= 0 && int(ln.owner) != k {
			continue
		}
		if ln.lru < bestLRU {
			best, bestLRU = i, ln.lru
		}
	}
	return best
}

// Access performs one cache access. On reservation failure the cache
// state is unchanged and the caller must retry; the retry of the request
// that failed last, with no mutator in between, is answered from the
// stall memo and costs no lookup.
func (c *Cache) Access(req *mem.Request) Result {
	k := req.Kernel
	if c.umon != nil {
		// The monitor observes every attempt, failed and repeated ones
		// included.
		c.umon.Access(k, req.LineAddr)
	}
	m := &c.memo
	res := m.res
	if !m.holds(req) {
		res = c.access(req)
		if !res.Failed() {
			m.armed = false
			return res
		}
		*m = stallMemo{armed: true, kind: req.Kind, res: res, kernel: k, sm: req.SM, lineAddr: req.LineAddr}
	}
	st := &c.Stats[k]
	st.RsFail++
	switch res {
	case ResFailMSHR:
		st.RsFailMSHR++
	case ResFailMissQueue:
		st.RsFailMQ++
	default:
		st.RsFailLine++
	}
	return res
}

// access evaluates req against the cache. A failed attempt has no side
// effect at all (Access counts it); a successful one updates the cache
// and the access counters.
func (c *Cache) access(req *mem.Request) Result {
	k := req.Kernel
	st := &c.Stats[k]
	base := c.setIndex(req.LineAddr) * c.cfg.Ways
	at := c.find(base, req.LineAddr)

	if at >= 0 && c.lines[at].valid {
		ln := &c.lines[at]
		if req.Kind == mem.Store && !c.cfg.WriteBack {
			// Write-evict: invalidate on write hit and forward the
			// store to the lower level.
			if c.missQ.Len() >= c.missQCap {
				return ResFailMissQueue
			}
			ln.valid = false
			c.tags[at] = noTag
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

	// Miss path: the line is absent (at < 0) or pending (reserved).
	if req.Kind == mem.Store && !c.cfg.WriteBack {
		// Write-no-allocate: forward the store, also past a pending line.
		if c.missQ.Len() >= c.missQCap {
			return ResFailMissQueue
		}
		c.missQ.Push(req)
		st.Accesses++
		st.Misses++
		return Forwarded
	}

	if at >= 0 {
		// Line is being fetched: merge into its MSHR entry.
		e := &c.entries[c.entOf[at]]
		if len(e.targets) >= c.cfg.MSHRMerge {
			return ResFailMSHR
		}
		e.targets = append(e.targets, req)
		st.Accesses++
		st.Misses++
		st.Merged++
		return HitPending
	}

	if k < len(c.bypass) && c.bypass[k] && req.Kind == mem.Load {
		// Bypass: ship the original request below; its response will
		// complete the instruction without filling this cache.
		if c.missQ.Len() >= c.missQCap {
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
		at = c.victim(base, k)
		if at < 0 || !c.evictForAlloc(at, req.SM) {
			return ResFailLine
		}
		c.lruClock++
		c.lines[at] = line{tag: req.LineAddr, valid: true, dirty: true, owner: int8(k), lru: c.lruClock}
		c.tags[at] = req.LineAddr
		st.Accesses++
		st.Misses++
		return Hit
	}

	// New miss: need MSHR + miss-queue slot + allocatable line.
	if c.mshrFree == 0 {
		return ResFailMSHR
	}
	if c.missQ.Len() >= c.missQCap {
		return ResFailMissQueue
	}
	at = c.victim(base, k)
	if at < 0 || !c.evictForAlloc(at, req.SM) {
		return ResFailLine
	}
	// Reserve the line for the incoming fill.
	c.lruClock++
	c.lines[at] = line{tag: req.LineAddr, valid: false, reserved: true, owner: int8(k), lru: c.lruClock}
	c.tags[at] = req.LineAddr

	e := c.takeSlot(at)
	c.mshrFree--
	e.lineAddr, e.set, e.way, e.isStore = req.LineAddr, base/c.cfg.Ways, at-base, req.Kind == mem.Store
	if e.targets == nil {
		e.targets = make([]*mem.Request, 0, c.cfg.MSHRMerge)
	}
	e.targets = append(e.targets, req)

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

// evictForAlloc queues the writeback of the victim line if it is dirty.
// It reports false when the writeback queue is full (the allocation must
// be retried).
func (c *Cache) evictForAlloc(at int, smID int) bool {
	ln := &c.lines[at]
	if ln.valid && ln.dirty && c.cfg.WriteBack {
		if c.wbQ.Len() >= c.wbQCap {
			return false
		}
		wb := c.Pool.Request()
		wb.LineAddr = ln.tag
		wb.Kind = mem.Store
		wb.Kernel = int(ln.owner)
		wb.SM = smID
		c.wbQ.Push(wb)
	}
	return true
}

// PopMiss removes and returns the oldest pending fetch/forward request,
// or nil when the miss queue is empty.
func (c *Cache) PopMiss() *mem.Request {
	if r, ok := c.missQ.TryPop(); ok {
		c.memo.armed = false
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
		c.memo.armed = false
		return r
	}
	return nil
}

// Fill delivers the line for lineAddr, validating the reserved line,
// releasing the MSHR entry and returning the merged target requests so
// the owner can complete them. It returns nil when no fill is pending
// for lineAddr, which the engine never produces: every fetch it sends
// below reserved a line, and a reserved line stays reserved until its
// fill (bypassed loads return to the SM directly, not through Fill).
func (c *Cache) Fill(lineAddr uint64) []*mem.Request {
	at := c.find(c.setIndex(lineAddr)*c.cfg.Ways, lineAddr)
	if at < 0 || !c.lines[at].reserved {
		return nil
	}
	c.memo.armed = false
	slot := c.entOf[at]
	e := &c.entries[slot]
	ln := &c.lines[at]
	ln.reserved = false
	ln.valid = true
	ln.dirty = e.isStore && c.cfg.WriteBack
	c.lruClock++
	ln.lru = c.lruClock
	// WBWA: merged stores dirty the line.
	if c.cfg.WriteBack {
		for _, t := range e.targets {
			if t.Kind == mem.Store {
				ln.dirty = true
			}
		}
	}
	// Recycle the slot. The targets returned to the caller stay valid
	// until the next miss takes the slot, by which point the owner has
	// retired them (fills are consumed in the same cycle they are
	// delivered). Truncate without zeroing: the returned slice aliases
	// this storage and the caller is still consuming it; stale pointers
	// beyond the next entry's length are overwritten by its appends.
	targets := e.targets
	e.targets = e.targets[:0]
	e.next = c.entFree
	c.entFree = slot
	c.mshrFree++
	return targets
}

// Contains reports whether lineAddr is resident and valid, without
// touching replacement state.
func (c *Cache) Contains(lineAddr uint64) bool {
	at := c.find(c.setIndex(lineAddr)*c.cfg.Ways, lineAddr)
	return at >= 0 && c.lines[at].valid
}

// MSHRInUse returns the number of occupied MSHR entries.
func (c *Cache) MSHRInUse() int { return c.cfg.MSHRs - c.mshrFree }

// MissQueueLen returns the current miss queue occupancy.
func (c *Cache) MissQueueLen() int { return c.missQ.Len() }

// SetPartition installs a per-kernel way quota (UCP enforcement). Pass
// nil to disable partitioning.
func (c *Cache) SetPartition(quota []int) {
	c.memo.armed = false
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
	c.memo.armed = false
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
