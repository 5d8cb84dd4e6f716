// Snapshot/restore for the crossbar: injection queues, round-robin
// pointers, port serialization deadlines and in-flight delivery queues
// are deep-copied through the machine-wide mem.Cloner.

package icnt

import (
	"fmt"

	"repro/internal/mem"
)

// Snapshot is the captured state of one Network. Immutable once taken;
// Restore deep-copies out of it.
type Snapshot struct {
	outQ             [][]Packet
	rr               []int
	portFree         []int64
	inQ              [][]delivered
	inCount          []int // len of each inQ: part of the encoded checkpoint format
	transferredFlits uint64
}

// Snapshot captures the network's full state through cl. Take it with
// nothing staged, after both commits: staged grants and pops are not
// captured.
func (n *Network) Snapshot(cl *mem.Cloner) *Snapshot {
	sn := &Snapshot{
		rr:               append([]int(nil), n.rr...),
		portFree:         append([]int64(nil), n.portFree...),
		transferredFlits: n.TransferredFlits,
	}
	for i := range n.outQ {
		sn.outQ = append(sn.outQ, n.outQ[i].Snapshot(func(p Packet) Packet {
			p.Req = cl.Request(p.Req)
			return p
		}))
	}
	for i := range n.inQ {
		e := &n.inQ[i]
		var q []delivered
		for j := e.head; j < e.tail; j++ {
			d := e.at(j)
			q = append(q, delivered{req: cl.Request(d.req), readyAt: d.readyAt})
		}
		sn.inQ = append(sn.inQ, q)
		sn.inCount = append(sn.inCount, len(q))
	}
	return sn
}

// Restore overwrites the network's state from sn through cl. The network
// must have the port counts the snapshot was taken from.
func (n *Network) Restore(sn *Snapshot, cl *mem.Cloner) error {
	if len(sn.outQ) != len(n.outQ) || len(sn.inQ) != len(n.inQ) {
		return fmt.Errorf("icnt: restore: snapshot is %dx%d ports, network is %dx%d",
			len(sn.outQ), len(sn.inQ), len(n.outQ), len(n.inQ))
	}
	for i, q := range sn.inQ {
		if len(q) > n.inCap {
			return fmt.Errorf("icnt: restore: destination %d holds %d packets, more than its cap %d", i, len(q), n.inCap)
		}
	}
	clear(n.heads)
	for i := range n.outQ {
		n.outQ[i].Restore(sn.outQ[i], func(p Packet) Packet {
			p.Req = cl.Request(p.Req)
			return p
		})
		if !n.outQ[i].Empty() {
			n.setHead(n.outQ[i].Peek().Dst, i, true)
		}
	}
	copy(n.rr, sn.rr)
	copy(n.portFree, sn.portFree)
	for i, q := range sn.inQ {
		e := &n.inQ[i]
		clear(e.buf)
		for j, d := range q {
			e.buf[j] = delivered{req: cl.Request(d.req), readyAt: d.readyAt}
		}
		e.head, e.poppable, e.tail, e.freed = 0, len(q), len(q), 0
	}
	n.TransferredFlits = sn.transferredFlits
	return nil
}

// PendingRequests returns how many packets the network currently holds
// across all queues (snapshot-footprint accounting).
func (n *Network) PendingRequests() int {
	total := 0
	for i := range n.outQ {
		total += n.outQ[i].Len()
	}
	for i := range n.inQ {
		total += n.inQ[i].tail - n.inQ[i].head
	}
	return total
}
