package mem

// Pool is a free-list allocator for the memory path's two hot transient
// objects: Requests (one per coalesced access, created by the SM's
// coalescer and by each cache level's fetch/writeback paths) and
// InstrTokens (one per warp memory instruction). Without pooling these
// dominate the cycle loop's allocation profile; with it the steady
// state allocates nothing on the memory path.
//
// A Pool is NOT safe for concurrent use; one machine is stepped by one
// goroutine, so none of its pools needs a lock. The cycle engine gives
// each SM its own Pool and the memory side (every L2 partition and DRAM
// channel) one more. Objects may be released into a different pool than
// the one that allocated them — a request allocated by an SM's
// coalescer is often retired on the memory side and vice versa — which
// only shifts free-list population between pools.
//
// The nil *Pool is valid and falls back to plain allocation (release
// becomes a no-op), so components can run unpooled in isolation tests.
type Pool struct {
	reqs []*Request
	toks []*InstrToken

	// Statistics (allocation-profile introspection; not hot).
	ReqAllocs   uint64 // requests served by new()
	ReqReuses   uint64 // requests served from the free list
	TokAllocs   uint64
	TokReuses   uint64
	ReqRecycled uint64 // requests released back
	TokRecycled uint64
}

// poisonLine is written into released requests' LineAddr so use-after-
// release shows up as an impossible address in any downstream check
// rather than as silent aliasing.
const poisonLine = ^uint64(0) - 0xDEAD

// Request returns a zeroed request, reusing a released one when
// available.
func (p *Pool) Request() *Request {
	if p == nil || len(p.reqs) == 0 {
		if p != nil {
			p.ReqAllocs++
		}
		return &Request{}
	}
	p.ReqReuses++
	r := p.reqs[len(p.reqs)-1]
	p.reqs = p.reqs[:len(p.reqs)-1]
	*r = Request{}
	return r
}

// Release returns a request to the free list. The request's fields are
// poisoned immediately: any holder that kept the pointer past release
// reads an impossible address/kernel instead of silently aliasing the
// next owner's data. Releasing nil is a no-op.
func (p *Pool) Release(r *Request) {
	if p == nil || r == nil {
		return
	}
	*r = Request{LineAddr: poisonLine, Kernel: -1, SM: -1, Warp: -1}
	p.ReqRecycled++
	p.reqs = append(p.reqs, r)
}

// Poisoned reports whether r carries the release-time poison pattern —
// the aliasing tests' detector for use-after-release.
func (r *Request) Poisoned() bool {
	return r.LineAddr == poisonLine && r.Kernel == -1 && r.SM == -1
}

// Token returns a zeroed instruction token, reusing a released one when
// available.
func (p *Pool) Token() *InstrToken {
	if p == nil || len(p.toks) == 0 {
		if p != nil {
			p.TokAllocs++
		}
		return &InstrToken{}
	}
	p.TokReuses++
	t := p.toks[len(p.toks)-1]
	p.toks = p.toks[:len(p.toks)-1]
	*t = InstrToken{}
	return t
}

// ReleaseToken returns a token to the free list, poisoned the same way
// as requests (Total/Done set so Completed() stays true but the kernel
// and SM are impossible). Releasing nil is a no-op.
func (p *Pool) ReleaseToken(t *InstrToken) {
	if p == nil || t == nil {
		return
	}
	*t = InstrToken{Kernel: -1, SM: -1, Warp: -1, Total: 0, Done: 0}
	p.TokRecycled++
	p.toks = append(p.toks, t)
}

// FreeRequests returns the free-list occupancy (tests/introspection).
func (p *Pool) FreeRequests() int {
	if p == nil {
		return 0
	}
	return len(p.reqs)
}

// FreeTokens returns the token free-list occupancy.
func (p *Pool) FreeTokens() int {
	if p == nil {
		return 0
	}
	return len(p.toks)
}
