package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

func testCfg() config.DRAM {
	return config.DRAM{
		Banks: 4, RowBytes: 2048, RowHitLat: 10, RowMissLat: 40,
		DataCycles: 4, QueueDepth: 8, ReturnQueue: 8,
	}
}

func TestLoadGetsResponse(t *testing.T) {
	ch := New(testCfg(), 128)
	r := &mem.Request{LineAddr: 0, Kind: mem.Load}
	if !ch.Push(r, 0) {
		t.Fatal("push failed")
	}
	var got *mem.Request
	for c := int64(0); c < 200 && got == nil; c++ {
		ch.Tick(c)
		got = ch.PopResponse(c)
	}
	if got != r {
		t.Fatal("load never completed")
	}
	if ch.Served != 1 || ch.RowMiss != 1 {
		t.Fatalf("Served=%d RowMiss=%d", ch.Served, ch.RowMiss)
	}
}

func TestStoreIsSilent(t *testing.T) {
	ch := New(testCfg(), 128)
	ch.Push(&mem.Request{LineAddr: 0, Kind: mem.Store}, 0)
	for c := int64(0); c < 200; c++ {
		ch.Tick(c)
		if ch.PopResponse(c) != nil {
			t.Fatal("stores must not produce responses")
		}
	}
	if ch.Served != 1 {
		t.Fatal("store was not served")
	}
}

func TestRowBufferHits(t *testing.T) {
	ch := New(testCfg(), 128)
	// Two lines in the same row (16 lines per 2KB row with 128B lines).
	ch.Push(&mem.Request{LineAddr: 0, Kind: mem.Load}, 0)
	ch.Push(&mem.Request{LineAddr: 1, Kind: mem.Load}, 0)
	for c := int64(0); c < 300; c++ {
		ch.Tick(c)
		ch.PopResponse(c)
	}
	if ch.RowHits != 1 || ch.RowMiss != 1 {
		t.Fatalf("RowHits=%d RowMiss=%d, want 1/1", ch.RowHits, ch.RowMiss)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	ch := New(testCfg(), 128)
	// Open row 0 of a bank.
	first := &mem.Request{LineAddr: 0, Kind: mem.Load}
	ch.Push(first, 0)
	c := int64(0)
	for ; ch.PopResponse(c) == nil; c++ {
		ch.Tick(c)
	}
	// Queue an older row-conflict (same bank, different row) and a newer
	// row-hit. Lines per row = 16; same bank needs row stride... with
	// bank hashing we find two lines of the open row vs another row by
	// construction: line 1 shares row 0, any line in a different row of
	// the same bank conflicts. Use line 1 (row hit) pushed after a
	// conflicting request to the same bank.
	rowHit := &mem.Request{LineAddr: 1, Kind: mem.Load}
	// Find a conflicting line: same bank as line 0/1, different row.
	conflictLine := uint64(0)
	b0 := ch.bankOf(0)
	for l := uint64(16); ; l += 16 {
		if ch.bankOf(l) == b0 {
			conflictLine = l
			break
		}
	}
	conflict := &mem.Request{LineAddr: conflictLine, Kind: mem.Load}
	ch.Push(conflict, c)
	ch.Push(rowHit, c)
	var order []*mem.Request
	for ; len(order) < 2 && c < 2000; c++ {
		ch.Tick(c)
		if r := ch.PopResponse(c); r != nil {
			order = append(order, r)
		}
	}
	if len(order) != 2 {
		t.Fatal("requests did not complete")
	}
	if order[0] != rowHit {
		t.Fatal("FR-FCFS must serve the row hit before the older conflict")
	}
}

func TestQueueBackpressure(t *testing.T) {
	ch := New(testCfg(), 128)
	pushed := 0
	for i := 0; i < 20; i++ {
		if ch.Push(&mem.Request{LineAddr: uint64(i * 64), Kind: mem.Load}, 0) {
			pushed++
		}
	}
	if pushed != 8 {
		t.Fatalf("queue accepted %d, want QueueDepth=8", pushed)
	}
	if ch.CanPush() {
		t.Fatal("CanPush must be false at depth")
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// Requests hitting different banks must finish sooner than the same
	// count serialized on one bank.
	cfg := testCfg()
	multi := New(cfg, 128)
	single := New(cfg, 128)
	b0 := multi.bankOf(0)
	// Four conflicting rows on one bank for "single".
	var singleLines []uint64
	for l := uint64(0); len(singleLines) < 4; l += 16 {
		if single.bankOf(l) == b0 && single.rowOf(l) != single.rowOf(0) || l == 0 {
			singleLines = append(singleLines, l)
		}
	}
	// Four lines on distinct banks for "multi".
	var multiLines []uint64
	seen := map[int]bool{}
	for l := uint64(0); len(multiLines) < 4; l += 16 {
		if b := multi.bankOf(l); !seen[b] {
			seen[b] = true
			multiLines = append(multiLines, l)
		}
	}
	run := func(ch *Channel, lines []uint64) int64 {
		for _, l := range lines {
			ch.Push(&mem.Request{LineAddr: l, Kind: mem.Load}, 0)
		}
		done := 0
		for c := int64(0); ; c++ {
			ch.Tick(c)
			if ch.PopResponse(c) != nil {
				done++
			}
			if done == len(lines) {
				return c
			}
			if c > 5000 {
				t.Fatal("requests never finished")
			}
		}
	}
	tm := run(multi, multiLines)
	ts := run(single, singleLines)
	if tm >= ts {
		t.Fatalf("bank-parallel finish (%d) should beat serialized (%d)", tm, ts)
	}
}

func TestBankHashSpreadsAlignedStreams(t *testing.T) {
	ch := New(testCfg(), 128)
	// Page-aligned region starts (the bug class this guards against):
	// regions at multiples of 2048 lines must not all map to one bank.
	seen := map[int]bool{}
	for seq := uint64(0); seq < 16; seq++ {
		seen[ch.bankOf(seq*2048)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("aligned region starts camp on %d bank(s)", len(seen))
	}
}

// TestPropertyAllLoadsComplete: every accepted load eventually returns
// exactly one response.
func TestPropertyAllLoadsComplete(t *testing.T) {
	f := func(lines []uint16) bool {
		ch := New(testCfg(), 128)
		accepted := 0
		cycle := int64(0)
		responses := 0
		for _, l := range lines {
			if ch.Push(&mem.Request{LineAddr: uint64(l), Kind: mem.Load}, cycle) {
				accepted++
			}
			ch.Tick(cycle)
			if ch.PopResponse(cycle) != nil {
				responses++
			}
			cycle++
		}
		for i := 0; i < 3000 && responses < accepted; i++ {
			ch.Tick(cycle)
			if ch.PopResponse(cycle) != nil {
				responses++
			}
			cycle++
		}
		return responses == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// twoPassPick is FR-FCFS as two scans, the reference for Tick's fused
// one: the oldest ready row-buffer hit, else the oldest request whose
// bank is free, else (or with the response queue full) -1.
func twoPassPick(c *Channel, cycle int64) int {
	if c.resp.Len() >= c.cfg.ReturnQueue {
		return -1
	}
	for i, p := range c.queue {
		if bk := &c.banks[p.bank]; bk.busyUntil <= cycle && bk.rowValid && bk.openRow == p.row {
			return i
		}
	}
	for i, p := range c.queue {
		if c.banks[p.bank].busyUntil <= cycle {
			return i
		}
	}
	return -1
}

// TestPropertyIdleSkipMatchesFullScan: the idle bound only ever skips
// ticks whose FR-FCFS scan would have picked nothing, and the scan picks
// what the two-pass picker picks. Two channels get the same request
// stream; one has its bound cleared before every tick, which forces the
// scan as before the bound existed, and must serve exactly the request
// twoPassPick names. Every response must come back in the same cycle on
// both.
func TestPropertyIdleSkipMatchesFullScan(t *testing.T) {
	f := func(lines []uint16, gaps []uint8) bool {
		fast, full := New(testCfg(), 128), New(testCfg(), 128)
		cycle := int64(0)
		step := func() bool {
			fast.Tick(cycle)
			want, queued := twoPassPick(full, cycle), len(full.queue)
			var wantReq *mem.Request
			if want >= 0 {
				wantReq = full.queue[want].req
				queued--
			}
			full.idleUntil = 0
			full.Tick(cycle)
			if len(full.queue) != queued || (want >= 0 && want < queued && full.queue[want].req == wantReq) {
				return false
			}
			a, b := fast.PopResponse(cycle), full.PopResponse(cycle)
			cycle++
			return (a == nil) == (b == nil) && (a == nil || a.LineAddr == b.LineAddr)
		}
		for i, l := range lines {
			// Mostly few banks and rows, so requests pile up behind busy
			// banks and the bound has something to skip.
			line := uint64(l%4)*2048 + uint64(l>>12)
			kind := mem.Load
			if l&0x100 != 0 {
				kind = mem.Store
			}
			okA := fast.Push(&mem.Request{LineAddr: line, Kind: kind}, cycle)
			okB := full.Push(&mem.Request{LineAddr: line, Kind: kind}, cycle)
			if okA != okB {
				return false
			}
			gap := 1
			if i < len(gaps) {
				gap += int(gaps[i] % 8)
			}
			for ; gap > 0; gap-- {
				if !step() {
					return false
				}
			}
		}
		for i := 0; i < 3000; i++ {
			if !step() {
				return false
			}
		}
		return fast.Served == full.Served && fast.RowHits == full.RowHits && fast.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
