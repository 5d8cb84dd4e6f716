package mem

import "repro/internal/ring"

// Pool is a free-list allocator for the memory path's two hot transient
// objects: Requests (one per coalesced access, created by the SM's
// coalescer and by each cache level's fetch/writeback paths) and
// InstrTokens (one per warp memory instruction). Without pooling these
// dominate the cycle loop's allocation profile; with it the steady
// state allocates nothing on the memory path.
//
// A Pool is NOT safe for concurrent use. A machine's Pool is shared by
// its SMs, caches and DRAM channels, so an object retired on the memory
// side serves the next SM-side allocation. A machine whose SM phase may
// run split over two goroutines (gpu.Step) gives the SMs of the second
// goroutine a Pool of their own, and returns their requests to it when
// they retire on the memory side.
//
// A Pool owns every object it allocated, wherever in the machine the
// object currently is. Init puts all of them back on the free lists:
// that is how the requests and tokens still in flight when a machine
// retires (gpu.Close) reach the machine built on its memory. Objects a
// Pool did not allocate (a restored snapshot's clones) are accepted by
// Release and serve like any other until the next Init drops them.
//
// The zero Pool is ready to use. The nil *Pool is valid too and falls
// back to plain allocation (release becomes a no-op), so components can
// run unpooled in isolation tests.
type Pool struct {
	reqs []*Request
	toks []*InstrToken
	// ownReqs and ownToks list what this pool allocated.
	ownReqs []*Request
	ownToks []*InstrToken

	// ReqAllocs and TokAllocs count the objects allocated since Init: zero
	// on a machine whose predecessor ran at least as much in flight.
	ReqAllocs uint64
	TokAllocs uint64
}

// Init makes p a pool nothing has been taken from: every object it owns
// is free, whoever held it, and the counters are zero.
func (p *Pool) Init() {
	*p = Pool{
		reqs:    append(ring.Zeroed(p.reqs, 0), p.ownReqs...),
		toks:    append(ring.Zeroed(p.toks, 0), p.ownToks...),
		ownReqs: p.ownReqs,
		ownToks: p.ownToks,
	}
}

// poisonLine is written into released requests' LineAddr so use-after-
// release shows up as an impossible address in any downstream check
// rather than as silent aliasing.
const poisonLine = ^uint64(0) - 0xDEAD

// Request returns a zeroed request, reusing a released one when
// available.
func (p *Pool) Request() *Request {
	if p == nil {
		return &Request{}
	}
	if len(p.reqs) == 0 {
		p.ReqAllocs++
		r := &Request{}
		p.ownReqs = append(p.ownReqs, r)
		return r
	}
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
	if p == nil {
		return &InstrToken{}
	}
	if len(p.toks) == 0 {
		p.TokAllocs++
		t := &InstrToken{}
		p.ownToks = append(p.ownToks, t)
		return t
	}
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
