package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

// smallL1 is a tiny write-evict cache for focused tests: 4 sets, 2 ways,
// 4 MSHRs with 2-deep merging, 2-deep miss queue, no xor indexing so set
// mapping is predictable.
func smallL1() *Cache {
	return New(config.Cache{
		SizeBytes:  4 * 2 * 128,
		LineBytes:  128,
		Ways:       2,
		MSHRs:      4,
		MSHRMerge:  2,
		MissQueue:  2,
		HitLatency: 1,
		XORIndex:   false,
		WriteBack:  false,
	}, 2)
}

func smallL2() *Cache {
	return New(config.Cache{
		SizeBytes:  4 * 2 * 128,
		LineBytes:  128,
		Ways:       2,
		MSHRs:      4,
		MSHRMerge:  2,
		MissQueue:  2,
		HitLatency: 1,
		XORIndex:   false,
		WriteBack:  true,
	}, 2)
}

func load(k int, line uint64) *mem.Request {
	return &mem.Request{LineAddr: line, Kind: mem.Load, Kernel: k, Instr: &mem.InstrToken{Kernel: k, Total: 1}}
}

func store(k int, line uint64) *mem.Request {
	return &mem.Request{LineAddr: line, Kind: mem.Store, Kernel: k, Instr: &mem.InstrToken{Kernel: k, Total: 1, Kind: mem.Store}}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallL1()
	r := load(0, 100)
	if res := c.Access(r); res != Miss {
		t.Fatalf("cold access = %v, want Miss", res)
	}
	// The fetch goes below and comes back.
	fetch := c.PopMiss()
	if fetch == nil || fetch.LineAddr != 100 {
		t.Fatal("miss queue should hold the fetch for line 100")
	}
	targets := c.Fill(100)
	if len(targets) != 1 || targets[0] != r {
		t.Fatalf("Fill returned %d targets", len(targets))
	}
	if res := c.Access(load(0, 100)); res != Hit {
		t.Fatalf("post-fill access = %v, want Hit", res)
	}
	st := c.Stats[0]
	if st.Accesses != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMSHRMerge(t *testing.T) {
	c := smallL1()
	if res := c.Access(load(0, 7)); res != Miss {
		t.Fatal("first access should miss")
	}
	if res := c.Access(load(0, 7)); res != HitPending {
		t.Fatal("second access to pending line should merge")
	}
	// Merge capacity is 2: the third access must fail on the MSHR.
	if res := c.Access(load(0, 7)); res != ResFailMSHR {
		t.Fatal("exceeding merge capacity must be a reservation failure")
	}
	c.PopMiss()
	targets := c.Fill(7)
	if len(targets) != 2 {
		t.Fatalf("fill should complete 2 merged targets, got %d", len(targets))
	}
	if c.Stats[0].Merged != 1 {
		t.Fatalf("Merged = %d, want 1", c.Stats[0].Merged)
	}
}

func TestMissQueueReservationFailure(t *testing.T) {
	c := smallL1()
	// Two misses fill the 2-deep miss queue (not drained).
	if c.Access(load(0, 1)) != Miss || c.Access(load(0, 2)) != Miss {
		t.Fatal("setup misses failed")
	}
	if res := c.Access(load(0, 3)); res != ResFailMissQueue {
		t.Fatalf("third miss = %v, want ResFailMissQueue", res)
	}
	if c.Stats[0].RsFailMQ != 1 {
		t.Fatal("miss-queue failure not counted")
	}
	// Draining the queue clears the failure.
	c.PopMiss()
	if res := c.Access(load(0, 3)); res != Miss {
		t.Fatalf("after drain = %v, want Miss", res)
	}
}

func TestLineReservationFailure(t *testing.T) {
	c := smallL1()
	// Set 0 holds lines 0, 4, 8, ... (4 sets). Two ways: two outstanding
	// misses reserve both; a third miss to the same set cannot allocate.
	if c.Access(load(0, 0)) != Miss {
		t.Fatal("miss 1")
	}
	c.PopMiss()
	if c.Access(load(0, 4)) != Miss {
		t.Fatal("miss 2")
	}
	c.PopMiss()
	if res := c.Access(load(0, 8)); res != ResFailLine {
		t.Fatalf("third miss to full set = %v, want ResFailLine", res)
	}
	// A fill frees the line and the access proceeds.
	c.Fill(0)
	if res := c.Access(load(0, 8)); res != Miss {
		t.Fatalf("after fill = %v, want Miss", res)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := smallL1()
	// 4 MSHRs; use lines in different sets, draining the miss queue.
	for i, line := range []uint64{0, 1, 2, 3} {
		if res := c.Access(load(0, line)); res != Miss {
			t.Fatalf("setup miss %d = %v", i, res)
		}
		c.PopMiss()
	}
	if res := c.Access(load(0, 5)); res != ResFailMSHR {
		t.Fatalf("5th outstanding miss = %v, want ResFailMSHR", res)
	}
	if c.MSHRInUse() != 4 {
		t.Fatalf("MSHRInUse = %d", c.MSHRInUse())
	}
	c.Fill(0)
	if c.MSHRInUse() != 3 {
		t.Fatalf("MSHRInUse after fill = %d", c.MSHRInUse())
	}
}

func TestWriteEvictStoreHitInvalidates(t *testing.T) {
	c := smallL1()
	c.Access(load(0, 9))
	c.PopMiss()
	c.Fill(9)
	if c.Access(load(0, 9)) != Hit {
		t.Fatal("line should be resident")
	}
	// Store hit: write-evict forwards the store and invalidates.
	if res := c.Access(store(0, 9)); res != Forwarded {
		t.Fatalf("store hit = %v, want Forwarded", res)
	}
	if w := c.PopMiss(); w == nil || w.Kind != mem.Store {
		t.Fatal("store must be forwarded below")
	}
	if res := c.Access(load(0, 9)); res != Miss {
		t.Fatalf("line must have been evicted by the store, got %v", res)
	}
}

func TestWriteNoAllocateStoreMiss(t *testing.T) {
	c := smallL1()
	if res := c.Access(store(0, 11)); res != Forwarded {
		t.Fatalf("store miss = %v, want Forwarded", res)
	}
	if c.MSHRInUse() != 0 {
		t.Fatal("write-no-allocate must not take an MSHR")
	}
	// When the miss queue is full, the store suffers a reservation
	// failure.
	c.Access(store(0, 12))
	if res := c.Access(store(0, 13)); res != ResFailMissQueue {
		t.Fatalf("store with full miss queue = %v", res)
	}
}

// TestStoreToPendingLineIsForwarded pins the write-no-allocate rule for a
// line whose fill is still in flight: the store is forwarded below like
// any other store miss, it does not join the MSHR entry's targets.
func TestStoreToPendingLineIsForwarded(t *testing.T) {
	c := smallL1()
	ld := load(0, 11)
	if res := c.Access(ld); res != Miss {
		t.Fatalf("load = %v, want Miss", res)
	}
	c.PopMiss()
	st := store(0, 11)
	if res := c.Access(st); res != Forwarded {
		t.Fatalf("store to pending line = %v, want Forwarded", res)
	}
	if got := c.PopMiss(); got != st {
		t.Fatal("the store itself must travel below")
	}
	if s := c.Stats[0]; s.Merged != 0 || s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want the store counted as a plain miss", s)
	}
	if targets := c.Fill(11); len(targets) != 1 || targets[0] != ld {
		t.Fatalf("fill returned %d targets, want only the load", len(targets))
	}
	// With the miss queue full the same store fails on the queue, not on
	// the MSHR entry.
	c.Access(load(0, 12))
	c.Access(load(0, 13))
	if res := c.Access(store(0, 12)); res != ResFailMissQueue {
		t.Fatalf("store to pending line, full miss queue = %v, want ResFailMissQueue", res)
	}
}

// TestBypassLoadToPendingLineMerges: a bypassing kernel's load to a line
// another access already reserved joins that MSHR entry instead of
// travelling below on its own.
func TestBypassLoadToPendingLineMerges(t *testing.T) {
	c := smallL1()
	first := load(1, 50)
	if res := c.Access(first); res != Miss {
		t.Fatalf("load before bypass = %v, want Miss", res)
	}
	c.PopMiss()
	c.SetBypass([]bool{false, true})
	second := load(1, 50)
	if res := c.Access(second); res != HitPending {
		t.Fatalf("bypassing load to pending line = %v, want HitPending", res)
	}
	if c.MissQueueLen() != 0 || c.Stats[1].Bypassed != 0 {
		t.Fatal("a merged load must not be sent below")
	}
	if targets := c.Fill(50); len(targets) != 2 || targets[0] != first || targets[1] != second {
		t.Fatalf("fill returned %d targets, want both loads in order", len(targets))
	}
}

func TestWriteValidateL2(t *testing.T) {
	c := smallL2()
	// A store miss on the write-back L2 allocates the line dirty without
	// fetching (write-validate).
	if res := c.Access(store(0, 20)); res != Hit {
		t.Fatalf("L2 store miss = %v, want Hit (write-validate)", res)
	}
	if c.MSHRInUse() != 0 || c.MissQueueLen() != 0 {
		t.Fatal("write-validate must not use miss resources")
	}
	if res := c.Access(load(0, 20)); res != Hit {
		t.Fatal("written line must be resident")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := smallL2()
	// Dirty line 0 in set 0, then displace it with misses to 4 and 8.
	c.Access(store(0, 0))
	c.Access(load(0, 4))
	c.PopMiss()
	c.Fill(4)
	// Set 0 now holds dirty 0 and clean 4. A miss to 8 evicts LRU (0).
	if res := c.Access(load(0, 8)); res != Miss {
		t.Fatalf("res=%v", res)
	}
	wb := c.PopWriteback()
	if wb == nil || wb.LineAddr != 0 || wb.Kind != mem.Store {
		t.Fatalf("expected writeback of dirty line 0, got %+v", wb)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallL1()
	fill := func(line uint64) {
		if res := c.Access(load(0, line)); res != Miss {
			t.Fatalf("line %d: %v", line, res)
		}
		c.PopMiss()
		c.Fill(line)
	}
	fill(0)
	fill(4)
	// Touch 0 so 4 is LRU.
	if c.Access(load(0, 0)) != Hit {
		t.Fatal("expected hit on 0")
	}
	fill(8) // evicts 4
	if res := c.Access(load(0, 0)); res != Hit {
		t.Fatal("0 (MRU) must survive")
	}
	if res := c.Access(load(0, 4)); res == Hit {
		t.Fatal("4 (LRU) must have been evicted")
	}
}

func TestPartitionEnforcement(t *testing.T) {
	c := smallL1()
	c.SetPartition([]int{1, 1}) // one way each in every set
	fill := func(k int, line uint64) {
		res := c.Access(load(k, line))
		if res != Miss {
			t.Fatalf("k%d line %d: %v", k, line, res)
		}
		c.PopMiss()
		c.Fill(line)
	}
	// Kernel 0 fills both ways of set 0 (allowed while kernel 1 absent).
	fill(0, 0)
	fill(0, 4)
	// Kernel 1 misses into set 0: kernel 0 is over quota, so one of its
	// lines must be the victim.
	fill(1, 8)
	kept0 := 0
	if c.Contains(0) {
		kept0++
	}
	if c.Contains(4) {
		kept0++
	}
	if kept0 != 1 {
		t.Fatalf("kernel 0 should retain exactly 1 line in the set, kept %d", kept0)
	}
	if !c.Contains(8) {
		t.Fatal("kernel 1's line must be resident")
	}
}

func TestXORIndexSpreadsStride(t *testing.T) {
	cfg := config.Cache{
		SizeBytes: 32 * 6 * 128, LineBytes: 128, Ways: 6,
		MSHRs: 128, MSHRMerge: 8, MissQueue: 64, HitLatency: 1,
		XORIndex: true, WriteBack: false,
	}
	c := New(cfg, 1)
	// Power-of-two-strided lines (stride = number of sets) all map to
	// one set without xor; with xor they must spread.
	seen := map[int]bool{}
	for i := uint64(0); i < 16; i++ {
		seen[c.setIndex(i*32)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("xor indexing spread 16 strided lines over only %d sets", len(seen))
	}
}

func TestFillUnknownLineIsNil(t *testing.T) {
	c := smallL1()
	if targets := c.Fill(999); targets != nil {
		t.Fatal("fill of unknown line must return nil")
	}
}

func TestMissRateCountsMergesAsHits(t *testing.T) {
	s := KernelStats{Accesses: 10, Misses: 6, Merged: 2}
	if got := s.MissRate(); got != 0.4 {
		t.Fatalf("MissRate = %v, want 0.4 ((6-2)/10)", got)
	}
}

func TestRsFailRate(t *testing.T) {
	s := KernelStats{Accesses: 4, RsFail: 10}
	if got := s.RsFailRate(); got != 2.5 {
		t.Fatalf("RsFailRate = %v, want 2.5", got)
	}
	var zero KernelStats
	if zero.MissRate() != 0 || zero.RsFailRate() != 0 {
		t.Fatal("zero-access rates must be 0")
	}
}

// TestPropertyNoLostRequests: every load accepted by the cache (Miss or
// HitPending) is eventually returned by exactly one Fill.
func TestPropertyNoLostRequests(t *testing.T) {
	f := func(lines []uint8) bool {
		c := smallL1()
		accepted := map[*mem.Request]bool{}
		pending := map[uint64]bool{}
		for _, ln := range lines {
			r := load(0, uint64(ln%16))
			res := c.Access(r)
			switch res {
			case Miss, HitPending:
				accepted[r] = true
				pending[r.LineAddr] = true
			}
			// Drain and fill aggressively to bound resource pressure.
			c.PopMiss()
		}
		returned := 0
		for line := range pending {
			returned += len(c.Fill(line))
		}
		return returned == len(accepted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStatsConsistent: accesses == hits + misses for any access
// sequence, and failures never mutate cache state visible to stats.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		c := smallL1()
		for _, op := range ops {
			line := uint64(op % 64)
			if op%5 == 0 {
				c.Access(store(0, line))
			} else {
				c.Access(load(0, line))
			}
			if op%3 == 0 {
				c.PopMiss()
			}
			if op%7 == 0 {
				c.Fill(line)
			}
		}
		st := c.Stats[0]
		return st.Accesses == st.Hits+st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBypassSkipsAllocation(t *testing.T) {
	c := smallL1()
	c.SetBypass([]bool{false, true})
	// Kernel 1 bypasses: its load miss goes below without MSHR/line.
	r := load(1, 50)
	if res := c.Access(r); res != Bypassed {
		t.Fatalf("bypassed kernel's miss = %v, want Bypassed", res)
	}
	if c.MSHRInUse() != 0 {
		t.Fatal("bypass must not allocate an MSHR")
	}
	out := c.PopMiss()
	if out != r {
		t.Fatal("the original request must travel below")
	}
	if c.Stats[1].Bypassed != 1 {
		t.Fatal("bypass not counted")
	}
	// Kernel 0 still allocates normally.
	if res := c.Access(load(0, 51)); res != Miss {
		t.Fatalf("non-bypassed kernel's miss = %v, want Miss", res)
	}
}

func TestBypassStillHitsResidentLines(t *testing.T) {
	c := smallL1()
	// Fill a line for kernel 1 before enabling bypass.
	c.Access(load(1, 60))
	c.PopMiss()
	c.Fill(60)
	c.SetBypass([]bool{false, true})
	if res := c.Access(load(1, 60)); res != Hit {
		t.Fatalf("bypass must not disable hits on resident lines, got %v", res)
	}
}

func TestBypassRespectsMissQueue(t *testing.T) {
	c := smallL1()
	c.SetBypass([]bool{true, false})
	c.Access(load(0, 1))
	c.Access(load(0, 2))
	if res := c.Access(load(0, 3)); res != ResFailMissQueue {
		t.Fatalf("bypass with full miss queue = %v", res)
	}
}

func TestContains(t *testing.T) {
	c := smallL1()
	if c.Contains(5) {
		t.Fatal("empty cache contains nothing")
	}
	c.Access(load(0, 5))
	if c.Contains(5) {
		t.Fatal("reserved (pending) line must not count as resident")
	}
	c.PopMiss()
	c.Fill(5)
	if !c.Contains(5) {
		t.Fatal("filled line must be resident")
	}
}

func TestPeekMissNonDestructive(t *testing.T) {
	c := smallL1()
	c.Access(load(0, 9))
	p1 := c.PeekMiss()
	p2 := c.PeekMiss()
	if p1 == nil || p1 != p2 {
		t.Fatal("PeekMiss must not consume")
	}
	if c.PopMiss() != p1 {
		t.Fatal("PopMiss must return the peeked request")
	}
	if c.PeekMiss() != nil || c.PopMiss() != nil {
		t.Fatal("queue must now be empty")
	}
}

func TestSetPartitionNilDisables(t *testing.T) {
	c := smallL1()
	c.SetPartition([]int{1, 1})
	if c.Partition() == nil {
		t.Fatal("partition not installed")
	}
	c.SetPartition(nil)
	if c.Partition() != nil {
		t.Fatal("nil must disable partitioning")
	}
}

func TestResultStrings(t *testing.T) {
	for r := Hit; r <= ResFailLine; r++ {
		if s := r.String(); s == "" {
			t.Errorf("result %d has no name", r)
		}
	}
	if !ResFailMSHR.Failed() || Hit.Failed() || Bypassed.Failed() {
		t.Fatal("Failed() classification wrong")
	}
}
