// Package icnt models the SM <-> memory-partition crossbar of Table 1:
// a 16x16 crossbar with 32 B flits. Two independent instances form the
// request and response virtual networks.
//
// Each source owns a FIFO injection queue. Each destination port moves
// up to FlitsPerCycle flits per cycle, granting several small control
// packets in one cycle while a data packet wider than the link
// serializes over multiple cycles, plus a fixed traversal latency.
// Output ports arbitrate among sources round-robin; the destination cap
// covers the bandwidth-delay product (packets in flight on the wire
// count against it). Head-of-line blocking at the injection queues is
// modelled (it is part of the congestion the paper's schemes react to).
//
// Arbitration is a priority encode, not a scan: each destination keeps a
// bitmask of the sources whose head packet targets it, maintained where
// heads change and walked from the round-robin pointer. The mask is
// derived state — rebuilt by Restore, absent from Snapshot, recomputed
// by CheckIndex — and the scanning arbiter survives as the test
// reference.
package icnt

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
)

// Packet is one message: a memory request or response plus its size.
type Packet struct {
	Req   *mem.Request
	Dst   int
	Flits int
}

type delivered struct {
	req     *mem.Request
	readyAt int64
}

// ejection is one destination's ejection queue: the packets granted to
// it, in flight or arrived, in grant order (readyAt is monotonic because
// the output port serializes transfers). It is a ring that never grows,
// at least inCap long. Tick writes at tail, Pop reads at head, and each
// reads the other's index only as the last commit copied it — poppable
// is tail at the last CommitDeliveries, freed is head at the last
// CommitPops — so a Tick and a Pop touch no common word, and the slot a
// Tick writes is never one a Pop reads: tail-head <= tail-freed < inCap.
type ejection struct {
	buf            []delivered // length a power of two
	head, poppable int         // Pop's side
	tail, freed    int         // Tick's side
}

// at returns the slot of the i-th packet ever granted.
func (e *ejection) at(i int) *delivered { return &e.buf[i&(len(e.buf)-1)] }

// Network is one direction of the crossbar.
//
// Grants and pops are staged. A packet Tick grants is poppable only
// after CommitDeliveries, and the slot a Pop frees counts only after
// CommitPops. So Tick touches nothing a Pop does, and a Tick may run on
// one goroutine while other goroutines pop distinct destinations (gpu's
// overlapped memory side). A driver calls both commits once per cycle:
// a Tick counts exactly the slots freed by the pops committed before
// it, and a Pop sees exactly the grants committed before it. A packet
// granted by Tick(c) carries readyAt >= c+1, so no Pop at cycle c could
// take it even once committed.
type Network struct {
	cfg      config.Icnt
	nSrc     int
	nDst     int
	outQ     []ring.Ring[Packet]
	rr       []int // per-destination round-robin pointer over sources
	portFree []int64
	// inQ is each destination's ejection queue; inCap bounds the
	// packets in flight toward a destination plus those queued there.
	inQ   []ejection
	inCap int
	// heads holds, per destination, a bitmask of the sources whose head
	// packet targets it (words 64-bit words each, source s at bit s&63
	// of word s>>6), so a port's arbitration walks set bits instead of
	// every injection queue. Derived from outQ: set in Push on an empty
	// queue and when a grant exposes the next head, cleared at grant,
	// rebuilt by Restore, not part of Snapshot.
	heads []uint64
	words int

	// TransferredFlits counts total flits moved (utilization statistic).
	TransferredFlits uint64
}

// New builds a network with nSrc sources and nDst destinations.
func New(cfg config.Icnt, nSrc, nDst int) *Network {
	n := new(Network)
	n.Init(cfg, nSrc, nDst)
	return n
}

// Init makes n the network New returns, in the memory n already holds
// where that is large enough (see gpu.New).
func (n *Network) Init(cfg config.Icnt, nSrc, nDst int) {
	fpc := cfg.FlitsPerCycle
	if fpc < 1 {
		fpc = 1
	}
	words := (nSrc + 63) / 64
	*n = Network{
		cfg:      cfg,
		nSrc:     nSrc,
		nDst:     nDst,
		outQ:     ring.Kept(n.outQ, nSrc),
		heads:    ring.Zeroed(n.heads, nDst*words),
		words:    words,
		rr:       ring.Zeroed(n.rr, nDst),
		portFree: ring.Zeroed(n.portFree, nDst),
		inQ:      ring.Kept(n.inQ, nDst),
		// Packets in flight on the wire count toward the destination,
		// so the cap must cover the bandwidth-delay product plus the
		// ejection buffer proper.
		inCap: cfg.QueueDepth + (cfg.Latency+1)*fpc,
	}
	for i := range n.outQ {
		n.outQ[i].Reset()
	}
	size := 1
	for size < n.inCap {
		size *= 2
	}
	for i := range n.inQ {
		n.inQ[i] = ejection{buf: ring.Zeroed(n.inQ[i].buf, size)}
	}
}

// setHead records (on) or retracts that src's head packet targets dst.
func (n *Network) setHead(dst, src int, on bool) {
	w := &n.heads[dst*n.words+src>>6]
	bit := uint64(1) << (src & 63)
	if on {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// waiting reports whether any source's head packet targets dst.
func (n *Network) waiting(dst int) bool {
	for i := dst * n.words; i < (dst+1)*n.words; i++ {
		if n.heads[i] != 0 {
			return true
		}
	}
	return false
}

// pick returns the first source at or after rr[dst], in round-robin
// order, whose head packet targets dst and fits the port's remaining
// flit budget this cycle, or -1. A packet wider than the link fits only
// a fresh budget.
func (n *Network) pick(dst, budget, fpc int) int {
	heads := n.heads[dst*n.words : (dst+1)*n.words]
	w0, b0 := n.rr[dst]>>6, uint(n.rr[dst]&63)
	// The word holding rr[dst] is visited twice: its bits from rr[dst]
	// up first, its bits below rr[dst] last.
	for i := 0; i <= n.words; i++ {
		w := w0 + i
		if w >= n.words {
			w -= n.words
		}
		m := heads[w]
		switch i {
		case 0:
			m &= ^uint64(0) << b0
		case n.words:
			m &= 1<<b0 - 1
		}
		for ; m != 0; m &= m - 1 {
			src := w<<6 + bits.TrailingZeros64(m)
			if f := n.outQ[src].Peek().Flits; f > budget && budget < fpc {
				// Does not fit in what remains of this cycle; leave
				// it for the next and try the next source.
				continue
			}
			return src
		}
	}
	return -1
}

// CanPush reports whether source src can inject another packet.
func (n *Network) CanPush(src int) bool {
	return n.outQ[src].Len() < n.cfg.QueueDepth
}

// Push injects a packet from src. It returns false when the injection
// queue is full.
func (n *Network) Push(src int, p Packet) bool {
	if !n.CanPush(src) {
		return false
	}
	if n.outQ[src].Empty() {
		n.setHead(p.Dst, src, true)
	}
	n.outQ[src].Push(p)
	return true
}

// Tick advances the crossbar by one cycle: every free output port
// arbitrates among sources whose head packet targets it, granting
// packets until its per-cycle flit budget is spent (several small
// control packets fit in one cycle; a data packet wider than the link
// occupies the port for multiple cycles).
func (n *Network) Tick(cycle int64) {
	fpc := n.cfg.FlitsPerCycle
	if fpc < 1 {
		fpc = 1
	}
	for dst := 0; dst < n.nDst; dst++ {
		if n.portFree[dst] > cycle || !n.waiting(dst) {
			continue
		}
		e := &n.inQ[dst]
		budget := fpc
		for budget > 0 && e.tail-e.freed < n.inCap {
			src := n.pick(dst, budget, fpc)
			if src < 0 {
				break
			}
			q := &n.outQ[src]
			p := q.Pop()
			n.setHead(dst, src, false)
			if !q.Empty() {
				n.setHead(q.Peek().Dst, src, true)
			}
			var readyAt int64
			if p.Flits <= budget {
				budget -= p.Flits
				readyAt = cycle + 1 + int64(n.cfg.Latency)
			} else {
				// Wider than the link: serialize over cycles.
				xfer := int64((p.Flits + fpc - 1) / fpc)
				n.portFree[dst] = cycle + xfer
				readyAt = cycle + xfer + int64(n.cfg.Latency)
				budget = 0
			}
			*e.at(e.tail) = delivered{req: p.Req, readyAt: readyAt}
			e.tail++
			n.TransferredFlits += uint64(p.Flits)
			n.rr[dst] = (src + 1) % n.nSrc
		}
	}
}

// Pop returns the next committed delivery at destination dst, or nil if
// none has arrived by cycle. The slot it frees counts from the next
// CommitPops.
func (n *Network) Pop(dst int, cycle int64) *mem.Request {
	e := &n.inQ[dst]
	if e.head == e.poppable {
		return nil
	}
	d := e.at(e.head)
	if d.readyAt > cycle {
		return nil
	}
	r := d.req
	*d = delivered{}
	e.head++
	return r
}

// CommitPops frees the ejection slots of every Pop since the last call,
// for the next Tick to grant into.
func (n *Network) CommitPops() {
	for i := range n.inQ {
		n.inQ[i].freed = n.inQ[i].head
	}
}

// CommitDeliveries makes every packet granted since the last call
// poppable once it has arrived.
func (n *Network) CommitDeliveries() {
	for i := range n.inQ {
		n.inQ[i].poppable = n.inQ[i].tail
	}
}

// CheckIndex compares the head-source masks with a recomputation from
// the injection queues (the invariant watchdog's crossbar rule).
func (n *Network) CheckIndex() error {
	want := make([]uint64, len(n.heads))
	for src := range n.outQ {
		if q := &n.outQ[src]; !q.Empty() {
			want[q.Peek().Dst*n.words+src>>6] |= 1 << (src & 63)
		}
	}
	for i := range want {
		if got := n.heads[i]; got != want[i] {
			return fmt.Errorf("destination %d: indexed sources %#x with a head packet for it (mask word %d), recomputed %#x",
				i/n.words, got, i%n.words, want[i])
		}
	}
	return nil
}

// Pending reports the number of packets queued or in flight toward dst,
// counting the slots of uncommitted pops as still held.
func (n *Network) Pending(dst int) int { return n.inQ[dst].tail - n.inQ[dst].freed }

// DataFlits returns the flit count for a packet carrying one cache line.
func DataFlits(cfg config.Icnt, lineBytes int) int {
	d := lineBytes / cfg.FlitBytes
	if d < 1 {
		d = 1
	}
	return cfg.HeaderFlits + d
}

// CtrlFlits returns the flit count for a header-only packet.
func CtrlFlits(cfg config.Icnt) int { return cfg.HeaderFlits }
