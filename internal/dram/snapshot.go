// Snapshot/restore for DRAM channels: banks, the FR-FCFS request queue,
// the response ring and bus/statistics state are deep-copied through the
// machine-wide mem.Cloner so no pooled request is shared with the live
// engine (copy-on-snapshot discipline).

package dram

import (
	"fmt"

	"repro/internal/mem"
)

// Snapshot is the captured state of one Channel. Immutable once taken;
// Restore deep-copies out of it.
type Snapshot struct {
	banks        []bank
	queue        []pending
	busBusyUntil int64
	resp         []response
	served       uint64
	rowHits      uint64
	rowMiss      uint64
}

// Snapshot captures the channel's full state through cl.
func (c *Channel) Snapshot(cl *mem.Cloner) *Snapshot {
	sn := &Snapshot{
		banks:        append([]bank(nil), c.banks...),
		busBusyUntil: c.busBusyUntil,
		served:       c.Served,
		rowHits:      c.RowHits,
		rowMiss:      c.RowMiss,
	}
	// bank/row are derived from the line address; the snapshot stores only
	// req+arrival and Restore recomputes them, so the encoded format is
	// independent of the bank-swizzle function.
	for _, p := range c.queue {
		sn.queue = append(sn.queue, pending{req: cl.Request(p.req), arrival: p.arrival})
	}
	sn.resp = c.resp.Snapshot(func(r response) response {
		return response{req: cl.Request(r.req), readyAt: r.readyAt}
	})
	return sn
}

// Restore overwrites the channel's state from sn through cl. The channel
// must have the bank count the snapshot was taken from.
func (c *Channel) Restore(sn *Snapshot, cl *mem.Cloner) error {
	if len(sn.banks) != len(c.banks) {
		return fmt.Errorf("dram: restore: snapshot has %d banks, channel has %d",
			len(sn.banks), len(c.banks))
	}
	copy(c.banks, sn.banks)
	c.queue = c.queue[:0]
	for _, p := range sn.queue {
		r := cl.Request(p.req)
		c.queue = append(c.queue, pending{
			req:     r,
			arrival: p.arrival,
			bank:    int32(c.bankOf(r.LineAddr)),
			row:     c.rowOf(r.LineAddr),
		})
	}
	c.busBusyUntil = sn.busBusyUntil
	c.idleUntil = 0
	c.resp.Restore(sn.resp, func(r response) response {
		return response{req: cl.Request(r.req), readyAt: r.readyAt}
	})
	c.Served = sn.served
	c.RowHits = sn.rowHits
	c.RowMiss = sn.rowMiss
	return nil
}

// PendingRequests returns how many requests the channel currently holds
// (snapshot-footprint accounting).
func (c *Channel) PendingRequests() int { return len(c.queue) + c.resp.Len() }
