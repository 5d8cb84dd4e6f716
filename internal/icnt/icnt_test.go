package icnt

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

func testCfg() config.Icnt {
	return config.Icnt{FlitBytes: 32, FlitsPerCycle: 1, Latency: 4, QueueDepth: 4, HeaderFlits: 1}
}

// TestStagedEjectionDoubleBuffer pins the rule that replaced the staged
// ejection port: a packet granted by Tick(c) is not poppable at cycle c,
// even with no traversal latency, and is at c+1; a Pop frees its slot at
// once, so the same cycle's Tick may grant into it. CommitPops and
// CommitDeliveries (kept for bench/micro.go) change nothing.
func TestStagedEjectionDoubleBuffer(t *testing.T) {
	cfg := testCfg()
	cfg.Latency = 0
	cfg.QueueDepth = 1 // with FlitsPerCycle 1 the port holds two packets in flight or queued
	n := New(cfg, 3, 1)
	first := &mem.Request{LineAddr: 6}
	n.Push(0, Packet{Req: first, Dst: 0, Flits: 1})
	n.Tick(0)
	if got := n.Pending(0); got != 1 {
		t.Fatalf("Pending after Tick(0) = %d, want 1", got)
	}
	if got := n.Pop(0, 0); got != nil {
		t.Fatal("packet granted by Tick(0) poppable at cycle 0")
	}
	n.CommitDeliveries()
	n.CommitPops()
	if n.Pending(0) != 1 || n.Pop(0, 0) != nil {
		t.Fatal("the Commit shims changed the network's state")
	}
	if got := n.Pop(0, 1); got != first {
		t.Fatal("packet granted by Tick(0) not poppable at cycle 1")
	}

	// Round-robin resumes after source 0: sources 1, 2, 0 in grant order.
	reqs := []*mem.Request{{LineAddr: 7}, {LineAddr: 8}, {LineAddr: 9}}
	for i, r := range reqs {
		n.Push((i+1)%3, Packet{Req: r, Dst: 0, Flits: 1})
	}
	n.Tick(1)
	n.Tick(2)
	n.Tick(3)
	if got := n.Pending(0); got != 2 {
		t.Fatalf("Pending after three ticks = %d, want 2 (the third finds the port full)", got)
	}
	if got := n.Pop(0, 4); got != reqs[0] {
		t.Fatal("head of the full port not poppable")
	}
	if got := n.Pending(0); got != 1 {
		t.Fatalf("Pending after Pop = %d, want 1 (a Pop frees its slot at once)", got)
	}
	n.Tick(4)
	if got := n.Pending(0); got != 2 {
		t.Fatalf("Pending after Tick(4) = %d, want 2 (the slot freed this cycle is granted into)", got)
	}
	if n.Pop(0, 5) != reqs[1] || n.Pop(0, 5) != reqs[2] || n.Pop(0, 5) != nil {
		t.Fatal("the queued packets did not come out in grant order")
	}
}

func TestDeliveryLatency(t *testing.T) {
	n := New(testCfg(), 2, 2)
	r := &mem.Request{LineAddr: 42}
	if !n.Push(0, Packet{Req: r, Dst: 1, Flits: 1}) {
		t.Fatal("push failed")
	}
	n.Tick(0)
	// 1 flit transfer + 4 latency: ready at cycle 5.
	for c := int64(1); c < 5; c++ {
		if got := n.Pop(1, c); got != nil {
			t.Fatalf("delivered too early at cycle %d", c)
		}
		n.Tick(c)
	}
	if got := n.Pop(1, 5); got != r {
		t.Fatal("packet not delivered at expected cycle")
	}
}

func TestPortSerializesMultiFlitPackets(t *testing.T) {
	n := New(testCfg(), 2, 1)
	r1 := &mem.Request{LineAddr: 1}
	r2 := &mem.Request{LineAddr: 2}
	n.Push(0, Packet{Req: r1, Dst: 0, Flits: 5})
	n.Push(1, Packet{Req: r2, Dst: 0, Flits: 5})
	n.Tick(0) // r1 wins the port; busy 5 cycles
	n.Tick(1) // port busy: r2 waits
	var got []*mem.Request
	for c := int64(0); c < 40; c++ {
		n.Tick(c)
		if r := n.Pop(0, c); r != nil {
			got = append(got, r)
		}
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d of 2 packets", len(got))
	}
}

func TestFlitsPerCycleSpeedsTransfer(t *testing.T) {
	slow := New(config.Icnt{FlitBytes: 32, FlitsPerCycle: 1, Latency: 0, QueueDepth: 4, HeaderFlits: 1}, 1, 1)
	fast := New(config.Icnt{FlitBytes: 32, FlitsPerCycle: 4, Latency: 0, QueueDepth: 4, HeaderFlits: 1}, 1, 1)
	for _, n := range []*Network{slow, fast} {
		n.Push(0, Packet{Req: &mem.Request{}, Dst: 0, Flits: 4})
		n.Tick(0)
	}
	if slow.Pop(0, 3) != nil {
		t.Fatal("slow link delivered 4 flits in under 4 cycles")
	}
	if fast.Pop(0, 1) == nil {
		t.Fatal("fast link should deliver 4 flits in 1 cycle")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	n := New(testCfg(), 1, 1)
	for i := 0; i < 4; i++ {
		if !n.Push(0, Packet{Req: &mem.Request{}, Dst: 0, Flits: 1}) {
			t.Fatalf("push %d rejected below queue depth", i)
		}
	}
	if n.Push(0, Packet{Req: &mem.Request{}, Dst: 0, Flits: 1}) {
		t.Fatal("push beyond queue depth must fail")
	}
	if n.CanPush(0) {
		t.Fatal("CanPush must be false when full")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	n := New(testCfg(), 4, 1)
	counts := make(map[uint64]int)
	// Saturate all sources toward one destination; deliveries must be
	// spread round-robin.
	for c := int64(0); c < 400; c++ {
		for src := 0; src < 4; src++ {
			n.Push(src, Packet{Req: &mem.Request{LineAddr: uint64(src)}, Dst: 0, Flits: 1})
		}
		n.Tick(c)
		for {
			r := n.Pop(0, c)
			if r == nil {
				break
			}
			counts[r.LineAddr]++
		}
	}
	for src := uint64(0); src < 4; src++ {
		if counts[src] < 50 {
			t.Fatalf("source %d delivered only %d packets: %v", src, counts[src], counts)
		}
	}
}

func TestFIFOPerSourceDestination(t *testing.T) {
	n := New(testCfg(), 1, 1)
	var sent []uint64
	var got []uint64
	next := uint64(0)
	for c := int64(0); c < 200; c++ {
		if n.CanPush(0) && next < 20 {
			n.Push(0, Packet{Req: &mem.Request{LineAddr: next}, Dst: 0, Flits: 2})
			sent = append(sent, next)
			next++
		}
		n.Tick(c)
		if r := n.Pop(0, c); r != nil {
			got = append(got, r.LineAddr)
		}
	}
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d", len(got), len(sent))
	}
	for i := range got {
		if got[i] != sent[i] {
			t.Fatalf("order violated at %d: %v", i, got)
		}
	}
}

// TestPropertyConservation: every pushed packet is delivered exactly
// once, none invented, none lost (given enough draining cycles).
func TestPropertyConservation(t *testing.T) {
	f := func(plan []uint8) bool {
		n := New(testCfg(), 3, 3)
		pushed := 0
		cycle := int64(0)
		delivered := 0
		drain := func() {
			for d := 0; d < 3; d++ {
				for n.Pop(d, cycle) != nil {
					delivered++
				}
			}
		}
		for _, p := range plan {
			src := int(p % 3)
			dst := int(p/3) % 3
			if n.Push(src, Packet{Req: &mem.Request{}, Dst: dst, Flits: int(p%4) + 1}) {
				pushed++
			}
			n.Tick(cycle)
			drain()
			cycle++
			if n.CheckIndex() != nil {
				return false
			}
		}
		for i := 0; i < 200; i++ {
			n.Tick(cycle)
			drain()
			cycle++
		}
		return delivered == pushed && n.CheckIndex() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFlitHelpers(t *testing.T) {
	cfg := testCfg()
	if got := DataFlits(cfg, 128); got != 5 {
		t.Fatalf("DataFlits(128B) = %d, want 5 (1 header + 4 data)", got)
	}
	if got := CtrlFlits(cfg); got != 1 {
		t.Fatalf("CtrlFlits = %d, want 1", got)
	}
}

// TestCheckIndexMatchesRecount: the head-source masks follow Push and
// grants exactly, Restore rebuilds them, and CheckIndex names a mask that
// lost a bit.
func TestCheckIndexMatchesRecount(t *testing.T) {
	cfg := testCfg()
	n := New(cfg, 4, 4)
	check := func(when string) {
		t.Helper()
		if err := n.CheckIndex(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("empty")
	// Two sources head for port 1, one for port 3; source 0 queues a
	// second packet for port 2 behind its head.
	n.Push(0, Packet{Req: &mem.Request{}, Dst: 1, Flits: 1})
	n.Push(0, Packet{Req: &mem.Request{}, Dst: 2, Flits: 1})
	n.Push(1, Packet{Req: &mem.Request{}, Dst: 1, Flits: 1})
	n.Push(2, Packet{Req: &mem.Request{}, Dst: 3, Flits: 1})
	check("after pushes")
	if got := n.heads[1]; got != 0b0011 {
		t.Fatalf("heads[1] = %#b, want sources 0 and 1", got)
	}
	if got := n.heads[2]; got != 0 {
		t.Fatalf("heads[2] = %#b, want none (packet is not at the head)", got)
	}
	for c := int64(0); c < 4; c++ {
		n.Tick(c)
		check("after tick")
	}
	if got := n.PendingRequests(); got != 4 {
		t.Fatalf("%d packets in the network, want all 4 granted and in flight", got)
	}

	n.Push(3, Packet{Req: &mem.Request{}, Dst: 0, Flits: 1})
	sn := n.Snapshot(mem.NewCloner())
	m := New(cfg, 4, 4)
	if err := m.Restore(sn, mem.NewCloner()); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckIndex(); err != nil {
		t.Fatalf("restored network: %v", err)
	}
	if got := m.heads[0]; got != 0b1000 {
		t.Fatalf("restored heads[0] = %#b, want source 3", got)
	}

	n.heads[0] = 0
	if err := n.CheckIndex(); err == nil {
		t.Fatal("dropped head bit not detected")
	}
}
