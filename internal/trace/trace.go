// Package trace provides a lightweight cycle-level event tracer for the
// simulator: a fixed-capacity ring buffer of compact events that the SM
// and memory system append to when tracing is enabled (a nil buffer
// costs one pointer check on the hot path). Summary renders a trace for
// pipeline debugging and teaching (ckesim -trace).
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Kind labels an event.
type Kind uint8

const (
	// IssueCompute: a warp issued an ALU or SFU instruction.
	IssueCompute Kind = iota
	// IssueMem: a warp memory instruction entered the LSU (Arg holds
	// the coalesced request count).
	IssueMem
	// L1Access: a request was serviced by the L1D (Arg: 0 hit, 1 miss,
	// 2 merged, 3 forwarded, 4 bypassed).
	L1Access
	// RsFail: the LSU head suffered a reservation failure (Arg holds
	// the failure cause as cache.Result).
	RsFail
	// Fill: a line fill arrived at the L1D (Arg: line address).
	Fill
	// TBLaunch / TBDone: thread-block lifecycle (Arg: TB slot).
	TBLaunch
	TBDone
)

func (k Kind) String() string {
	switch k {
	case IssueCompute:
		return "compute"
	case IssueMem:
		return "mem-issue"
	case L1Access:
		return "l1-access"
	case RsFail:
		return "rsfail"
	case Fill:
		return "fill"
	case TBLaunch:
		return "tb-launch"
	case TBDone:
		return "tb-done"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one trace record (32 bytes).
type Event struct {
	Cycle  int64
	Arg    uint64
	Kind   Kind
	SM     int8
	Kernel int8
	Warp   int16
}

func (e Event) String() string {
	return fmt.Sprintf("%8d sm%d k%d w%-3d %-9s arg=%d",
		e.Cycle, e.SM, e.Kernel, e.Warp, e.Kind, e.Arg)
}

// ringBuf is the fixed-capacity event ring shared by the flat buffer
// and its per-SM shards.
type ringBuf struct {
	ring  []Event
	next  int
	total uint64
}

func (r *ringBuf) add(e Event) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.ring)
	r.total++
}

func (r *ringBuf) snapshot() []Event {
	if len(r.ring) < cap(r.ring) {
		out := make([]Event, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Buffer is a ring of the most recent events. The zero value is unusable;
// create with New.
//
// A Buffer starts flat (one ring). The cycle engine calls
// EnsureShards(numSMs) so that each SM appends to a shard of its own —
// Add routes by Event.SM — and what one SM retains does not depend on
// how chatty the others are. Readers (Snapshot, Filter, Total,
// CountByKind) merge the shards by (Cycle, SM). A Buffer is not safe for
// concurrent use; the engine writes and reads it from one goroutine.
type Buffer struct {
	ringBuf            // events Added before sharding (or with out-of-range SM)
	capacity int       // requested retention, divided among shards
	shards   []ringBuf // one per SM once EnsureShards is called
}

// New creates a buffer retaining the last capacity events.
func New(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{
		ringBuf:  ringBuf{ring: make([]Event, 0, capacity)},
		capacity: capacity,
	}
}

// EnsureShards splits the buffer into n per-SM shards (idempotent for
// the same n). Each shard retains capacity/n events, so total retention
// is unchanged; per-SM retention becomes independent of other SMs'
// event rates.
func (b *Buffer) EnsureShards(n int) {
	if n <= 0 || len(b.shards) == n {
		return
	}
	per := b.capacity / n
	if per < 1 {
		per = 1
	}
	b.shards = make([]ringBuf, n)
	for i := range b.shards {
		b.shards[i].ring = make([]Event, 0, per)
	}
}

// Add appends an event, evicting the oldest when full. On a sharded
// buffer the event goes to its SM's shard; events whose SM is out of
// shard range (or recorded before sharding) stay in the flat ring.
func (b *Buffer) Add(e Event) {
	if i := int(e.SM); i >= 0 && i < len(b.shards) {
		b.shards[i].add(e)
		return
	}
	b.ringBuf.add(e)
}

// Total reports how many events were ever recorded.
func (b *Buffer) Total() uint64 {
	t := b.total
	for i := range b.shards {
		t += b.shards[i].total
	}
	return t
}

// Snapshot returns the retained events, oldest first: ordered by Cycle,
// ties broken by SM, with per-SM insertion order preserved. On a flat
// buffer this is plain insertion order.
func (b *Buffer) Snapshot() []Event {
	if len(b.shards) == 0 {
		return b.ringBuf.snapshot()
	}
	lists := make([][]Event, 0, len(b.shards)+1)
	if s := b.ringBuf.snapshot(); len(s) > 0 {
		lists = append(lists, s)
	}
	for i := range b.shards {
		if s := b.shards[i].snapshot(); len(s) > 0 {
			lists = append(lists, s)
		}
	}
	if len(lists) == 1 {
		return lists[0]
	}
	return mergeByCycleSM(lists)
}

// mergeByCycleSM k-way merges per-shard event lists. Each list is
// nondecreasing in Cycle (SMs stamp events with their current cycle),
// so a head-comparison merge yields a total order by (Cycle, SM) while
// keeping each shard's insertion order for equal keys.
func mergeByCycleSM(lists [][]Event) []Event {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]Event, 0, n)
	idx := make([]int, len(lists))
	for len(out) < n {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			h, bh := l[idx[i]], lists[best][idx[best]]
			if h.Cycle < bh.Cycle || (h.Cycle == bh.Cycle && h.SM < bh.SM) {
				best = i
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// Filter returns the retained events matching keep, oldest first.
func (b *Buffer) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range b.Snapshot() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Render formats events, one per line.
func Render(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CountByKind tallies the retained events per kind.
func (b *Buffer) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range b.Snapshot() {
		out[e.Kind]++
	}
	return out
}

// Summary writes the event counts, the mix of the retained window by
// kind, and its last tail events, only those of kind when kind is set.
func (b *Buffer) Summary(w io.Writer, tail int, kind string) {
	evs := b.Snapshot()
	fmt.Fprintf(w, "%d events recorded (%d retained)\n\nevent mix (retained window):\n", b.Total(), len(evs))
	counts := b.CountByKind()
	for k := IssueCompute; k <= TBDone; k++ { // every kind, in order
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-10s %8d\n", k, counts[k])
		}
	}
	if kind != "" {
		evs = b.Filter(func(e Event) bool { return e.Kind.String() == kind })
	}
	if len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	fmt.Fprintf(w, "\ntrace tail (%d events):\n%s", len(evs), Render(evs))
}
