package cache

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// The equivalence tests drive a Cache and the refCache of
// reference_test.go with one generated operation stream and require the
// same Result from every access, the same targets in the same order from
// every Fill, the same requests out of both queues, the same statistics
// and UMON counters, and byte-identical encoded snapshots. The caches
// are tiny, so sets fill, every reservation-failure cause occurs and
// failed requests are retried — immediately and across each mutator —
// which is what the stall memo has to survive.

// stream is one generated scenario.
type stream struct {
	name   string
	cfg    config.Cache
	umon   bool
	quota  bool // draw way quotas (UCP geometry)
	bypass bool // draw bypass vectors
	sms    int  // requests come from this many SMs
	lines  int  // distinct line addresses
	ops    int
	// per-op probabilities
	pStore, pRetry, pPopMiss, pPopWB, pFill float64
}

const streamKernels = 2

func drawStream(seed uint64) (stream, *xrand.Source) {
	rng := xrand.New(seed)
	st := stream{
		ops:      400 + rng.Intn(1200),
		pStore:   []float64{0, 0.1, 0.5}[rng.Intn(3)],
		pRetry:   []float64{0.2, 0.6}[rng.Intn(2)],
		pPopMiss: []float64{0.02, 0.15, 0.4}[rng.Intn(3)],
		pPopWB:   []float64{0.01, 0.2}[rng.Intn(2)],
		pFill:    []float64{0.05, 0.2, 0.4}[rng.Intn(3)],
	}
	cfg := config.Cache{LineBytes: 128, HitLatency: 1, XORIndex: rng.Bool(0.5)}
	sets := 1 << rng.Intn(3)
	switch seed % 3 {
	case 0:
		st.name, st.bypass, st.sms = "l1-bypass", true, 1
		cfg.Ways = 6
	case 1:
		st.name, st.quota, st.umon, st.sms = "l1-ucp", true, true, 1
		cfg.Ways = 6
	default:
		st.name, st.sms = "l2", 4
		cfg.Ways, cfg.WriteBack = 16, true
		sets = 1 << rng.Intn(2)
		st.pStore = []float64{0.3, 0.7}[rng.Intn(2)]
	}
	cfg.SizeBytes = sets * cfg.Ways * cfg.LineBytes
	// Either resource can be the scarce one: few MSHRs, a short miss
	// queue, or enough of both that the set's lines run out first.
	cfg.MSHRs = []int{2, 8, 4 * cfg.Ways}[rng.Intn(3)]
	cfg.MSHRMerge = []int{1, 2, 8}[rng.Intn(3)]
	cfg.MissQueue = []int{1, 4, 4 * cfg.Ways}[rng.Intn(3)]
	st.cfg = cfg
	st.lines = sets * cfg.Ways * (2 + rng.Intn(3))
	return st, rng
}

// coverage records which paths a corpus of streams reached.
type coverage struct {
	results      [ResFailLine + 1]int
	wbFull       int // ResFailLine because the writeback queue was full
	memoAnswered int // retries answered by the stall memo
	restoreArmed int // snapshots restored while a memo was armed
}

type pair struct {
	t   testing.TB
	st  stream
	c   *Cache
	ref *refCache
	seq int64
	cov *coverage
}

func sameReq(a, b *mem.Request) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func (p *pair) access(r mem.Request) Result {
	p.t.Helper()
	a, b := r, r
	if p.c.memo.holds(&a) {
		p.cov.memoAnswered++
	}
	wbFull := p.c.wbQ.Len() >= p.c.wbQCap
	got, want := p.c.Access(&a), p.ref.Access(&b)
	if got != want {
		p.t.Fatalf("access %+v: indexed %v, reference %v", r, got, want)
	}
	p.cov.results[got]++
	if got == ResFailLine && wbFull {
		p.cov.wbFull++
	}
	return got
}

func (p *pair) fill(line uint64) {
	p.t.Helper()
	got, want := p.c.Fill(line), p.ref.Fill(line)
	if !slices.EqualFunc(got, want, sameReq) || (got == nil) != (want == nil) {
		p.t.Fatalf("fill %#x: indexed returns %d targets, reference %d, or their order differs", line, len(got), len(want))
	}
}

func (p *pair) popMiss() {
	p.t.Helper()
	if got, want := p.c.PopMiss(), p.ref.PopMiss(); !sameReq(got, want) {
		p.t.Fatalf("PopMiss: indexed %+v, reference %+v", got, want)
	}
}

func (p *pair) popWriteback() {
	p.t.Helper()
	if got, want := p.c.PopWriteback(), p.ref.PopWriteback(); !sameReq(got, want) {
		p.t.Fatalf("PopWriteback: indexed %+v, reference %+v", got, want)
	}
}

func (p *pair) setPartition(rng *xrand.Source) {
	var q []int
	if rng.Bool(0.8) {
		a := 1 + rng.Intn(p.st.cfg.Ways-1)
		q = []int{a, p.st.cfg.Ways - a}
	}
	p.c.SetPartition(q)
	p.ref.SetPartition(q)
}

func (p *pair) setBypass(rng *xrand.Source) {
	var b []bool
	if rng.Bool(0.8) {
		b = []bool{rng.Bool(0.5), rng.Bool(0.5)}
	}
	p.c.SetBypass(b)
	p.ref.SetBypass(b)
}

// snapshotsEqual encodes both caches' snapshots and compares the bytes,
// returning the indexed cache's snapshot.
func (p *pair) snapshotsEqual() *Snapshot {
	p.t.Helper()
	sn := p.c.Snapshot(mem.NewCloner())
	got, err := ckpt.Marshal(sn)
	if err != nil {
		p.t.Fatal(err)
	}
	want, err := ckpt.Marshal(p.ref.Snapshot(mem.NewCloner()))
	if err != nil {
		p.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		p.t.Fatalf("encoded snapshots differ (%d vs %d bytes)", len(got), len(want))
	}
	return sn
}

// restoreFresh replaces the indexed cache by a fresh one restored from
// its own snapshot; the reference carries on.
func (p *pair) restoreFresh() {
	p.t.Helper()
	if p.c.memo.armed {
		p.cov.restoreArmed++
	}
	sn := p.snapshotsEqual()
	fresh := New(p.st.cfg, streamKernels)
	if err := fresh.Restore(sn, mem.NewCloner()); err != nil {
		p.t.Fatal(err)
	}
	p.c = fresh
}

func (p *pair) compare(op int, what string) {
	p.t.Helper()
	if !slices.Equal(p.c.Stats, p.ref.stats) {
		p.t.Fatalf("op %d (%s): stats differ\nindexed   %+v\nreference %+v", op, what, p.c.Stats, p.ref.stats)
	}
	if p.c.MSHRInUse() != p.st.cfg.MSHRs-p.ref.mshrFree || p.c.MissQueueLen() != p.ref.missQ.Len() {
		p.t.Fatalf("op %d (%s): occupancy differs", op, what)
	}
	if p.st.umon && !reflect.DeepEqual(p.c.umon.snapshot(), p.ref.umon.snapshot()) {
		p.t.Fatalf("op %d (%s): UMON counters differ", op, what)
	}
	if err := p.c.CheckIndex(); err != nil {
		p.t.Fatalf("op %d (%s): %v", op, what, err)
	}
}

func runStream(t testing.TB, seed uint64, cov *coverage) {
	st, rng := drawStream(seed)
	p := &pair{t: t, st: st, c: New(st.cfg, streamKernels), ref: newRefCache(st.cfg, streamKernels), cov: cov}
	if st.umon {
		p.c.AttachUMON()
		p.ref.AttachUMON()
	}
	draw := func() mem.Request {
		p.seq++
		r := mem.Request{
			LineAddr:   uint64(rng.Intn(st.lines)),
			Kernel:     rng.Intn(streamKernels),
			SM:         rng.Intn(st.sms),
			IssueCycle: p.seq, // makes every request distinguishable by value
		}
		if rng.Bool(st.pStore) {
			r.Kind = mem.Store
		}
		return r
	}
	var awaiting []uint64 // lines reserved and not yet filled
	fillOne := func() {
		if len(awaiting) == 0 {
			p.fill(uint64(st.lines) + 7) // no such fill pending: nil from both
			return
		}
		i := rng.Intn(len(awaiting))
		p.fill(awaiting[i])
		awaiting = slices.Delete(awaiting, i, i+1)
	}
	// mutators are the operations that can change what a failed request
	// would get on retry.
	mutators := []func(){fillOne, p.popMiss, p.popWriteback, p.restoreFresh}
	if st.quota {
		mutators = append(mutators, func() { p.setPartition(rng) })
	}
	if st.bypass {
		mutators = append(mutators, func() { p.setBypass(rng) })
	}
	for op := 0; op < st.ops; op++ {
		what := "access"
		switch x := rng.Float64(); {
		case x < st.pPopMiss:
			what = "popmiss"
			p.popMiss()
		case x < st.pPopMiss+st.pPopWB:
			what = "popwb"
			p.popWriteback()
		case x < st.pPopMiss+st.pPopWB+st.pFill:
			what = "fill"
			fillOne()
		case x < st.pPopMiss+st.pPopWB+st.pFill+0.02:
			what = "policy/restore"
			mutators[3+rng.Intn(len(mutators)-3)]()
		default:
			r := draw()
			res := p.access(r)
			// A failed request is retried as the LSU retries it: at
			// once, a few times, then once more behind a mutator.
			for res.Failed() && rng.Bool(st.pRetry) {
				for n := rng.Intn(4); n > 0 && res.Failed(); n-- {
					res = p.access(r)
				}
				if res.Failed() {
					mutators[rng.Intn(len(mutators))]()
					res = p.access(r)
				}
			}
			if res == Miss {
				awaiting = append(awaiting, r.LineAddr)
			}
		}
		p.compare(op, what)
		if op%64 == 0 {
			p.snapshotsEqual()
		}
	}
	p.snapshotsEqual()
}

func TestIndexedCacheMatchesReference(t *testing.T) {
	covs := map[string]*coverage{}
	for seed := uint64(0); seed < 240; seed++ {
		st, _ := drawStream(seed)
		if covs[st.name] == nil {
			covs[st.name] = &coverage{}
		}
		t.Run(fmt.Sprintf("%s/seed=%d", st.name, seed), func(t *testing.T) {
			runStream(t, seed, covs[st.name])
		})
	}
	// The corpus must reach what the comparison is for.
	for name, cov := range covs {
		for r, n := range cov.results {
			reachable := true
			switch Result(r) {
			case Forwarded:
				reachable = name != "l2"
			case Bypassed:
				reachable = name == "l1-bypass"
			}
			if reachable && n == 0 {
				t.Errorf("%s: no access returned %v", name, Result(r))
			}
		}
		if name == "l2" && cov.wbFull == 0 {
			t.Errorf("%s: the writeback queue never filled", name)
		}
		if cov.memoAnswered == 0 || cov.restoreArmed == 0 {
			t.Errorf("%s: %d retries answered by the memo, %d restores with a memo armed; want both > 0",
				name, cov.memoAnswered, cov.restoreArmed)
		}
	}
}

func FuzzIndexedCacheMatchesReference(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runStream(t, seed, &coverage{})
	})
}
