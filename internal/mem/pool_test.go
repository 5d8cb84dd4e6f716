package mem

import "testing"

func TestPoolReusesRequests(t *testing.T) {
	var p Pool
	r1 := p.Request()
	r1.LineAddr = 42
	p.Release(r1)
	r2 := p.Request()
	if r2 != r1 {
		t.Fatal("pool did not reuse the released request")
	}
	if r2.LineAddr != 0 || r2.Kernel != 0 || r2.Instr != nil {
		t.Fatalf("reused request not zeroed: %+v", r2)
	}
	if p.ReqAllocs != 1 {
		t.Fatalf("ReqAllocs = %d, want 1", p.ReqAllocs)
	}
}

// TestNoAliasingAfterRecycle is the two-owners test: once a request is
// released, the releasing owner's retained pointer must read as
// poisoned — not as the (zeroed or repopulated) state of the next
// owner. A stale pointer that still looks like a live request is
// exactly the bug class pooling can introduce; poisoning turns it into
// an immediately detectable state.
func TestNoAliasingAfterRecycle(t *testing.T) {
	var p Pool
	stale := p.Request()
	stale.LineAddr = 7
	stale.Kernel = 1
	stale.SM = 3
	tok := &InstrToken{Kernel: 1}
	stale.Instr = tok

	p.Release(stale)
	if !stale.Poisoned() {
		t.Fatalf("released request not poisoned: %+v", stale)
	}
	if stale.Instr != nil {
		t.Fatal("release kept the token reference alive")
	}

	// Second owner takes the same storage and fills its own state.
	fresh := p.Request()
	fresh.LineAddr = 99
	fresh.Kernel = 0

	// The storage is shared (that is the point of a pool)...
	if fresh != stale {
		t.Fatal("expected the pool to hand back the recycled storage")
	}
	// ...so the OLD owner's view and the new owner's view are the same
	// object; the test's contract is that release left no path by which
	// the old owner's logical request (addr 7, kernel 1, token tok)
	// is still reachable: the token link was severed and the poison
	// overwrote the identity fields before reuse.
	if fresh.Instr == tok {
		t.Fatal("recycled request still reaches the first owner's token")
	}
	if fresh.LineAddr == 7 {
		t.Fatal("first owner's address survived recycling")
	}
}

func TestPoolTokenLifecycle(t *testing.T) {
	var p Pool
	tk := p.Token()
	tk.Total = 4
	tk.Done = 4
	tk.Kernel = 2
	p.ReleaseToken(tk)
	if tk.Kernel != -1 || tk.SM != -1 {
		t.Fatalf("released token not poisoned: %+v", tk)
	}
	if !tk.Completed() {
		t.Fatal("poisoned token must remain Completed (no spurious barrier waits)")
	}
	tk2 := p.Token()
	if tk2 != tk {
		t.Fatal("pool did not reuse the released token")
	}
	if tk2.Kernel != 0 || tk2.Total != 0 || tk2.Done != 0 {
		t.Fatalf("reused token not zeroed: %+v", tk2)
	}
}

func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	r := p.Request()
	if r == nil {
		t.Fatal("nil pool must still allocate")
	}
	p.Release(r) // must not panic
	tk := p.Token()
	if tk == nil {
		t.Fatal("nil pool must still allocate tokens")
	}
	p.ReleaseToken(tk)
	if p.FreeRequests() != 0 || p.FreeTokens() != 0 {
		t.Fatal("nil pool reported free-list occupancy")
	}
}

func TestReleaseNilIsNoOp(t *testing.T) {
	var p Pool
	p.Release(nil)
	p.ReleaseToken(nil)
	if p.FreeRequests() != 0 || p.FreeTokens() != 0 {
		t.Fatal("releasing nil populated the free list")
	}
}

// TestInitReclaimsEverythingThePoolAllocated is the retirement contract:
// whatever a pool handed out and never got back — the requests and
// tokens in flight when their machine was closed — is free again after
// Init, the counters are zero, and an object the pool did not allocate
// is not adopted.
func TestInitReclaimsEverythingThePoolAllocated(t *testing.T) {
	var p, other Pool
	inFlight := []*Request{p.Request(), p.Request(), p.Request()}
	p.Release(inFlight[0])
	tok := p.Token()
	p.Release(other.Request()) // a foreign object serves until Init
	if p.FreeRequests() != 2 || p.ReqAllocs != 3 || p.TokAllocs != 1 {
		t.Fatalf("before Init: %d free requests, %d/%d allocs", p.FreeRequests(), p.ReqAllocs, p.TokAllocs)
	}
	p.Init()
	if p.FreeRequests() != 3 || p.FreeTokens() != 1 || p.ReqAllocs != 0 || p.TokAllocs != 0 {
		t.Fatalf("after Init: %d free requests, %d free tokens, %d/%d allocs, want 3, 1, 0/0",
			p.FreeRequests(), p.FreeTokens(), p.ReqAllocs, p.TokAllocs)
	}
	seen := map[*Request]bool{}
	for range inFlight {
		seen[p.Request()] = true
	}
	for _, r := range inFlight {
		if !seen[r] {
			t.Fatal("Init did not reclaim a request that was in flight")
		}
	}
	if p.Token() != tok || p.ReqAllocs != 0 || p.TokAllocs != 0 {
		t.Fatal("a run no larger than the last one allocated")
	}
	var zero Pool
	zero.Init()
	if zero.FreeRequests() != 0 || zero.Request() == nil {
		t.Fatal("Init on the zero Pool is not the zero Pool")
	}
}
