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
package icnt

import (
	"fmt"
	"sync/atomic"

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

// Network is one direction of the crossbar.
//
// The ejection port is double-buffered so the consumer side (Pop) and
// the producer side (Tick) may run on different goroutines within one
// engine cycle: Tick stages deliveries into inStage and Pop records
// drained packets in popped without touching inCount. CommitPops and
// CommitDeliveries apply the staged effects; the engine calls them at
// its determinism barrier, in the exact positions that reproduce the
// serial tick order (Tick at cycle c observes pops through cycle c;
// Pop at cycle c observes deliveries staged through cycle c-1, which
// is all it could consume anyway because readyAt >= c+1 for anything
// Tick(c) stages).
type Network struct {
	cfg      config.Icnt
	nSrc     int
	nDst     int
	outQ     []ring.Ring[Packet]
	rr       []int // per-destination round-robin pointer over sources
	portFree []int64
	// inQ holds delivered packets per destination; readyAt is monotonic
	// per destination because each output port serializes transfers.
	inQ     []ring.Ring[delivered]
	inCount []int // packets in flight + queued per destination
	inCap   int
	// inStage holds packets granted by Tick but not yet visible to Pop;
	// popped counts packets drained by Pop but not yet applied to
	// inCount. Only Tick touches inStage/inCount; only Pop touches
	// inQ/popped (per destination); the commit methods touch both and
	// run single-threaded at the engine's barrier.
	inStage []ring.Ring[delivered]
	popped  []int
	// wanted[dst] counts the sources whose head packet targets dst, so
	// Tick visits only ports somebody is waiting on. Derived from outQ:
	// maintained in Push and at grant, rebuilt by Restore, not part of
	// Snapshot. Atomic because distinct sources may Push packets for one
	// destination from distinct goroutines (the partition workers on the
	// response network); Tick never overlaps a Push.
	wanted []atomic.Int32

	// TransferredFlits counts total flits moved (utilization statistic).
	TransferredFlits uint64
}

// New builds a network with nSrc sources and nDst destinations.
func New(cfg config.Icnt, nSrc, nDst int) *Network {
	fpc := cfg.FlitsPerCycle
	if fpc < 1 {
		fpc = 1
	}
	n := &Network{
		cfg:      cfg,
		nSrc:     nSrc,
		nDst:     nDst,
		outQ:     make([]ring.Ring[Packet], nSrc),
		wanted:   make([]atomic.Int32, nDst),
		rr:       make([]int, nDst),
		portFree: make([]int64, nDst),
		inQ:      make([]ring.Ring[delivered], nDst),
		inCount:  make([]int, nDst),
		inStage:  make([]ring.Ring[delivered], nDst),
		popped:   make([]int, nDst),
		// Packets in flight on the wire count toward the destination,
		// so the cap must cover the bandwidth-delay product plus the
		// ejection buffer proper.
		inCap: cfg.QueueDepth + (cfg.Latency+1)*fpc,
	}
	return n
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
		n.wanted[p.Dst].Add(1)
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
		if n.wanted[dst].Load() == 0 || n.portFree[dst] > cycle {
			continue
		}
		budget := fpc
		for budget > 0 && n.inCount[dst] < n.inCap {
			// The scan ends once it has seen every source waiting on
			// this port; a grant may expose another packet for it.
			waiting := int(n.wanted[dst].Load())
			src := n.rr[dst] - 1
			granted := false
			for i := 0; i < n.nSrc && waiting > 0; i++ {
				if src++; src == n.nSrc {
					src = 0
				}
				q := &n.outQ[src]
				if q.Empty() || q.Peek().Dst != dst {
					continue
				}
				waiting--
				p := q.Peek()
				if p.Flits > budget && budget < fpc {
					// Does not fit in what remains of this cycle;
					// leave it for the next.
					continue
				}
				q.Pop()
				n.wanted[dst].Add(-1)
				if !q.Empty() {
					n.wanted[q.Peek().Dst].Add(1)
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
				// Staged: invisible to Pop until CommitDeliveries. The
				// count is the producer side's own backpressure signal
				// and is maintained immediately (the grant loop above
				// re-reads it within this very cycle).
				n.inStage[dst].Push(delivered{req: p.Req, readyAt: readyAt})
				n.inCount[dst]++
				n.TransferredFlits += uint64(p.Flits)
				n.rr[dst] = (src + 1) % n.nSrc
				granted = true
				break
			}
			if !granted {
				break
			}
		}
	}
}

// Pop returns the next delivered request at destination dst, or nil if
// none has arrived by cycle. Distinct destinations may be popped from
// distinct goroutines concurrently with Tick; the drain is applied to
// the shared occupancy count only at CommitPops.
func (n *Network) Pop(dst int, cycle int64) *mem.Request {
	q := &n.inQ[dst]
	if q.Empty() || q.Peek().readyAt > cycle {
		return nil
	}
	r := q.Pop().req
	n.popped[dst]++
	return r
}

// CommitPops applies the pops staged since the last commit to the
// per-destination occupancy counts. Single-threaded; the engine calls
// it at its barrier, before the Tick that must observe those pops.
func (n *Network) CommitPops() {
	for dst, p := range n.popped {
		if p != 0 {
			n.inCount[dst] -= p
			n.popped[dst] = 0
		}
	}
}

// CommitDeliveries publishes packets staged by Tick since the last
// commit to the ejection queues Pop reads. Single-threaded; the engine
// calls it at its barrier, after the consumers that must not yet see
// them have run.
func (n *Network) CommitDeliveries() {
	for dst := range n.inStage {
		st := &n.inStage[dst]
		for !st.Empty() {
			n.inQ[dst].Push(st.Pop())
		}
	}
}

// CheckIndex compares the head-destination counts with a recount from
// the injection queues (the invariant watchdog's crossbar rule).
func (n *Network) CheckIndex() error {
	recount := make([]int, n.nDst)
	for src := range n.outQ {
		if q := &n.outQ[src]; !q.Empty() {
			recount[q.Peek().Dst]++
		}
	}
	for dst, want := range recount {
		if got := int(n.wanted[dst].Load()); got != want {
			return fmt.Errorf("destination %d: indexed %d sources with a head packet for it, recount %d",
				dst, got, want)
		}
	}
	return nil
}

// Pending reports the number of packets queued or in flight toward dst.
func (n *Network) Pending(dst int) int { return n.inCount[dst] }

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
