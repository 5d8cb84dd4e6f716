// Package dram models one GDDR memory channel with an FR-FCFS scheduler
// (first-ready, first-come-first-served): among queued requests, a
// request hitting an open row buffer in a ready bank is served before
// older row-miss requests; ties break by age. Bank busy times and the
// shared data bus bound the channel bandwidth (Table 1: 48 B/cycle at
// the memory clock, which our unit-clock model folds into DataCycles
// per 128 B line).
//
// The scheduler finds its pick in one pass over the queue, oldest first
// (the first ready row hit, else the first request whose bank is free),
// and skips the pass entirely until the earliest bank of a queued
// request frees up.
package dram

import (
	"math"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
)

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil int64
}

type pending struct {
	req     *mem.Request
	arrival int64
	// bank and row are derived from req.LineAddr at Push time. The
	// FR-FCFS scan may walk the whole queue; precomputing here
	// turns the per-entry hash/division into two integer loads from the
	// same cache line the scan is already touching.
	bank int32
	row  uint64
}

type response struct {
	req     *mem.Request
	readyAt int64
}

// Channel is one DRAM channel.
type Channel struct {
	cfg          config.DRAM
	linesPerRow  uint64
	banks        []bank
	queue        []pending
	busBusyUntil int64
	resp         ring.Ring[response]
	// idleUntil <= busyUntil of the bank of every queued request: before
	// that cycle the FR-FCFS scan can pick nothing, so Tick skips it.
	// Derived (a bank's busyUntil only moves forward; Push lowers the
	// bound, a scan that finds nothing makes it exact) and not part of
	// Snapshot: Restore resets it to 0, which is always valid.
	idleUntil int64

	// Pool, when non-nil, receives served store requests (stores need no
	// response, so the channel is their final owner). Set by the GPU.
	Pool *mem.Pool

	// Statistics.
	Served  uint64
	RowHits uint64
	RowMiss uint64
}

// New builds a channel. lineBytes is the cache line size.
func New(cfg config.DRAM, lineBytes int) *Channel {
	c := new(Channel)
	c.Init(cfg, lineBytes)
	return c
}

// Init makes c the channel New returns, in the memory c already holds
// where that is large enough (see gpu.New).
func (c *Channel) Init(cfg config.DRAM, lineBytes int) {
	lpr := uint64(cfg.RowBytes / lineBytes)
	if lpr == 0 {
		lpr = 1
	}
	c.resp.Reset()
	*c = Channel{
		cfg:         cfg,
		linesPerRow: lpr,
		banks:       ring.Zeroed(c.banks, cfg.Banks),
		queue:       ring.Zeroed(c.queue, 0),
		resp:        c.resp,
	}
}

// CanPush reports whether the request queue has space.
func (c *Channel) CanPush() bool { return len(c.queue) < c.cfg.QueueDepth }

// Push enqueues a request. It returns false when the queue is full.
func (c *Channel) Push(r *mem.Request, cycle int64) bool {
	if !c.CanPush() {
		return false
	}
	b := c.bankOf(r.LineAddr)
	c.queue = append(c.queue, pending{
		req:     r,
		arrival: cycle,
		bank:    int32(b),
		row:     c.rowOf(r.LineAddr),
	})
	if c.banks[b].busyUntil < c.idleUntil {
		c.idleUntil = c.banks[b].busyUntil
	}
	return true
}

func (c *Channel) bankOf(lineAddr uint64) int {
	// Hash rows onto banks so power-of-two strided streams (every
	// kernel's per-warp regions are page-aligned) spread across banks
	// instead of camping on one, as real memory controllers do with
	// bank-address swizzling. Accesses within one row still share a
	// bank, preserving row-buffer locality.
	row := lineAddr / c.linesPerRow
	h := row * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(c.banks)))
}

func (c *Channel) rowOf(lineAddr uint64) uint64 {
	return lineAddr / c.linesPerRow
}

// Tick issues at most one request per cycle using FR-FCFS.
func (c *Channel) Tick(cycle int64) {
	if len(c.queue) == 0 || cycle < c.idleUntil {
		return
	}
	if c.resp.Len() >= c.cfg.ReturnQueue {
		return // response queue backpressure
	}
	// One pass, oldest first: stop at the first ready row-buffer hit
	// (first ready), remembering the first request whose bank is free
	// (FCFS) in case there is none.
	pick, fcfs := -1, -1
	soonest := int64(math.MaxInt64)
	for i := range c.queue {
		bk := &c.banks[c.queue[i].bank]
		if bk.busyUntil > cycle {
			if bk.busyUntil < soonest {
				soonest = bk.busyUntil
			}
			continue
		}
		if bk.rowValid && bk.openRow == c.queue[i].row {
			pick = i
			break
		}
		if fcfs < 0 {
			fcfs = i
		}
	}
	if pick < 0 {
		if fcfs < 0 {
			// Every queued request's bank is busy, so soonest saw them all.
			c.idleUntil = soonest
			return
		}
		pick = fcfs
	}
	p := c.queue[pick]
	last := len(c.queue) - 1
	copy(c.queue[pick:], c.queue[pick+1:])
	// The vacated tail slot must not keep naming a request that may be
	// back on a free list by the time the queue grows into it again.
	c.queue[last] = pending{}
	c.queue = c.queue[:last]

	row := p.row
	bk := &c.banks[p.bank]
	var access int64
	if bk.rowValid && bk.openRow == row {
		access = int64(c.cfg.RowHitLat)
		c.RowHits++
	} else {
		access = int64(c.cfg.RowMissLat)
		c.RowMiss++
		bk.openRow = row
		bk.rowValid = true
	}
	dataStart := cycle + access
	if c.busBusyUntil > dataStart {
		dataStart = c.busBusyUntil
	}
	done := dataStart + int64(c.cfg.DataCycles)
	c.busBusyUntil = done
	bk.busyUntil = done
	c.Served++
	if p.req.Kind == mem.Load {
		c.resp.Push(response{req: p.req, readyAt: done})
	} else {
		// Stores are fire-and-forget: no response travels back up, so
		// the request retires here.
		c.Pool.Release(p.req)
	}
}

// PopResponse returns the next completed load, or nil. Responses become
// visible in completion order.
func (c *Channel) PopResponse(cycle int64) *mem.Request {
	// Completion order follows bus order, so the slice is sorted by
	// readyAt as appended.
	if c.resp.Empty() || c.resp.Peek().readyAt > cycle {
		return nil
	}
	return c.resp.Pop().req
}

// QueueLen returns the number of waiting requests.
func (c *Channel) QueueLen() int { return len(c.queue) }
