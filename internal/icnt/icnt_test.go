package icnt

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/xrand"
)

func testCfg() config.Icnt {
	return config.Icnt{FlitBytes: 32, FlitsPerCycle: 1, Latency: 4, QueueDepth: 4, HeaderFlits: 1}
}

// TestStagedEjectionDoubleBuffer pins the commit contract: a packet
// granted by Tick is not poppable before CommitDeliveries, and then only
// from the cycle after its grant, even with no traversal latency; a Pop
// takes its packet at once but frees the slot only at CommitPops, so a
// Tick before that commit does not grant into it.
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
	if got := n.Pop(0, 1); got != nil {
		t.Fatal("packet granted by Tick(0) poppable before CommitDeliveries")
	}
	n.CommitDeliveries()
	if got := n.Pop(0, 0); got != nil {
		t.Fatal("packet granted by Tick(0) poppable at cycle 0")
	}
	if got := n.Pop(0, 1); got != first {
		t.Fatal("committed packet granted by Tick(0) not poppable at cycle 1")
	}
	n.CommitPops()
	if got := n.Pending(0); got != 0 {
		t.Fatalf("Pending after CommitPops = %d, want 0", got)
	}

	// Round-robin resumes after source 0: sources 1, 2, 0 in grant order.
	reqs := []*mem.Request{{LineAddr: 7}, {LineAddr: 8}, {LineAddr: 9}}
	for i, r := range reqs {
		n.Push((i+1)%3, Packet{Req: r, Dst: 0, Flits: 1})
	}
	for c := int64(1); c <= 3; c++ {
		n.Tick(c)
		n.CommitDeliveries()
	}
	if got := n.Pending(0); got != 2 {
		t.Fatalf("Pending after three ticks = %d, want 2 (the third finds the port full)", got)
	}
	if got := n.Pop(0, 4); got != reqs[0] {
		t.Fatal("head of the full port not poppable")
	}
	n.Tick(4)
	n.CommitDeliveries()
	if got := n.Pending(0); got != 2 {
		t.Fatalf("Pending after a Tick before CommitPops = %d, want 2 (the popped slot is not yet free)", got)
	}
	n.CommitPops()
	if got := n.Pending(0); got != 1 {
		t.Fatalf("Pending after CommitPops = %d, want 1", got)
	}
	n.Tick(5)
	if got := n.Pending(0); got != 2 {
		t.Fatalf("Pending after Tick(5) = %d, want 2 (the committed slot is granted into)", got)
	}
	if n.Pop(0, 6) != reqs[1] || n.Pop(0, 6) != nil {
		t.Fatal("a grant of Tick(5) was poppable before CommitDeliveries")
	}
	n.CommitDeliveries()
	if n.Pop(0, 6) != reqs[2] || n.Pop(0, 6) != nil {
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
	n.CommitDeliveries()
	// 1 flit transfer + 4 latency: ready at cycle 5.
	for c := int64(1); c < 5; c++ {
		if got := n.Pop(1, c); got != nil {
			t.Fatalf("delivered too early at cycle %d", c)
		}
		n.Tick(c)
		n.CommitDeliveries()
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
		n.CommitDeliveries()
		if r := n.Pop(0, c); r != nil {
			got = append(got, r)
		}
		n.CommitPops()
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
		n.CommitDeliveries()
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
		n.CommitDeliveries()
		for {
			r := n.Pop(0, c)
			if r == nil {
				break
			}
			counts[r.LineAddr]++
		}
		n.CommitPops()
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
		n.CommitDeliveries()
		if r := n.Pop(0, c); r != nil {
			got = append(got, r.LineAddr)
		}
		n.CommitPops()
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
		// One cycle's tick and pops, committed as gpu commits the
		// request network.
		drain := func() {
			n.CommitDeliveries()
			for d := 0; d < 3; d++ {
				for n.Pop(d, cycle) != nil {
					delivered++
				}
			}
			n.CommitPops()
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
		n.CommitDeliveries()
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

// TestTickBesidePops runs the commit contract the way gpu's split cycle
// does: one goroutine ticks cycle c-1 while two others pop disjoint
// halves of the destinations at cycle c, and the three meet once per
// cycle, where the pops and grants are committed and the sources push.
// Every destination must deliver the packets of the serial order, at
// the same cycles; under -race, the three touch no common word.
func TestTickBesidePops(t *testing.T) {
	const nSrc, nDst, cycles = 6, 6, 3000
	type out struct {
		line  uint64
		cycle int64
	}
	push := func(n *Network, rng *xrand.Source, c int64) {
		for src := 0; src < nSrc; src++ {
			if rng.Bool(0.6) {
				flits := []int{1, 5}[rng.Intn(2)]
				n.Push(src, Packet{Req: &mem.Request{LineAddr: uint64(c)<<8 | uint64(src)}, Dst: rng.Intn(nDst), Flits: flits})
			}
		}
	}
	pops := func(n *Network, got [][]out, lo, hi int, c int64) {
		for dst := lo; dst < hi; dst++ {
			for r := n.Pop(dst, c); r != nil; r = n.Pop(dst, c) {
				got[dst] = append(got[dst], out{r.LineAddr, c})
			}
		}
	}
	run := func(overlap bool) [][]out {
		n := New(testCfg(), nSrc, nDst)
		rng := xrand.New(7)
		got := make([][]out, nDst)
		for c := int64(0); c < cycles; c++ {
			if overlap {
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); pops(n, got, 0, nDst/2, c) }()
				go func() { defer wg.Done(); pops(n, got, nDst/2, nDst, c) }()
				if c > 0 {
					n.Tick(c - 1)
				}
				wg.Wait()
				n.CommitPops()
				n.CommitDeliveries()
				push(n, rng, c)
			} else {
				pops(n, got, 0, nDst, c)
				n.CommitPops()
				push(n, rng, c)
				n.Tick(c)
				n.CommitDeliveries()
			}
		}
		return got
	}
	want, got := run(false), run(true)
	total := 0
	for dst := range want {
		if !slices.Equal(got[dst], want[dst]) {
			t.Fatalf("destination %d: overlapped ticks delivered %v, serial %v", dst, got[dst], want[dst])
		}
		total += len(want[dst])
	}
	if total == 0 {
		t.Fatal("nothing was delivered; the schedule exercised nothing")
	}
}
