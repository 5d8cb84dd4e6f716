package icnt

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/xrand"
)

// refNetwork is the crossbar with the arbitration the head-source masks
// replaced: every output port scans every injection queue, starting at
// its round-robin pointer, for a head packet that targets it and fits.
// Deliveries and pops take effect at once; the Network under test
// commits both every cycle, as gpu does, and must agree with it.
type refNetwork struct {
	cfg      config.Icnt
	outQ     []ring.Ring[Packet]
	rr       []int
	portFree []int64
	inQ      []ring.Ring[delivered]
	inCount  []int
	inCap    int
	flits    uint64
}

func newRefNetwork(cfg config.Icnt, nSrc, nDst int) *refNetwork {
	return &refNetwork{
		cfg:      cfg,
		outQ:     make([]ring.Ring[Packet], nSrc),
		rr:       make([]int, nDst),
		portFree: make([]int64, nDst),
		inQ:      make([]ring.Ring[delivered], nDst),
		inCount:  make([]int, nDst),
		inCap:    cfg.QueueDepth + (cfg.Latency+1)*cfg.FlitsPerCycle,
	}
}

func (n *refNetwork) push(src int, p Packet) bool {
	if n.outQ[src].Len() >= n.cfg.QueueDepth {
		return false
	}
	n.outQ[src].Push(p)
	return true
}

func (n *refNetwork) tick(cycle int64) {
	fpc, nSrc := n.cfg.FlitsPerCycle, len(n.outQ)
	for dst := range n.inQ {
		if n.portFree[dst] > cycle {
			continue
		}
		budget := fpc
		for budget > 0 && n.inCount[dst] < n.inCap {
			granted := false
			for i := 0; i < nSrc && !granted; i++ {
				src := (n.rr[dst] + i) % nSrc
				q := &n.outQ[src]
				if q.Empty() || q.Peek().Dst != dst {
					continue
				}
				p := q.Peek()
				if p.Flits > budget && budget < fpc {
					continue
				}
				q.Pop()
				var readyAt int64
				if p.Flits <= budget {
					budget -= p.Flits
					readyAt = cycle + 1 + int64(n.cfg.Latency)
				} else {
					xfer := int64((p.Flits + fpc - 1) / fpc)
					n.portFree[dst] = cycle + xfer
					readyAt = cycle + xfer + int64(n.cfg.Latency)
					budget = 0
				}
				n.inQ[dst].Push(delivered{req: p.Req, readyAt: readyAt})
				n.inCount[dst]++
				n.flits += uint64(p.Flits)
				n.rr[dst] = (src + 1) % nSrc
				granted = true
			}
			if !granted {
				break
			}
		}
	}
}

func (n *refNetwork) pop(dst int, cycle int64) *mem.Request {
	q := &n.inQ[dst]
	if q.Empty() || q.Peek().readyAt > cycle {
		return nil
	}
	n.inCount[dst]--
	return q.Pop().req
}

// TestMaskArbitrationMatchesReference drives a Network and the scanning
// reference with one generated injection and drain schedule and requires
// the same packet out of every port on every cycle, over one-word and
// multi-word masks, links narrower and wider than a data packet, and
// drains slow enough that ports back up.
func TestMaskArbitrationMatchesReference(t *testing.T) {
	for _, nSrc := range []int{1, 16, 70} {
		for _, fpc := range []int{1, 8} {
			for seed := uint64(0); seed < 6; seed++ {
				t.Run(fmt.Sprintf("src=%d/fpc=%d/seed=%d", nSrc, fpc, seed), func(t *testing.T) {
					rng := xrand.New(seed<<8 | uint64(nSrc))
					cfg := config.Icnt{FlitBytes: 32, FlitsPerCycle: fpc, Latency: rng.Intn(5), QueueDepth: 1 + rng.Intn(8), HeaderFlits: 1}
					nDst := 1 + rng.Intn(16)
					pInject := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
					pDrain := []float64{0.1, 0.5, 1}[rng.Intn(3)]
					n, ref := New(cfg, nSrc, nDst), newRefNetwork(cfg, nSrc, nDst)
					delivered := 0
					for c := int64(0); c < 1500; c++ {
						for src := 0; src < nSrc; src++ {
							if !rng.Bool(pInject) {
								continue
							}
							p := Packet{Req: &mem.Request{}, Dst: rng.Intn(nDst), Flits: []int{1, 5}[rng.Intn(2)]}
							if got, want := n.Push(src, p), ref.push(src, p); got != want {
								t.Fatalf("cycle %d: push from %d accepted %v, reference %v", c, src, got, want)
							}
						}
						n.Tick(c)
						n.CommitDeliveries()
						ref.tick(c)
						if err := n.CheckIndex(); err != nil {
							t.Fatalf("cycle %d: %v", c, err)
						}
						for dst := 0; dst < nDst; dst++ {
							if n.rr[dst] != ref.rr[dst] || n.portFree[dst] != ref.portFree[dst] {
								t.Fatalf("cycle %d: port %d arbitration state differs", c, dst)
							}
							for rng.Bool(pDrain) {
								got, want := n.Pop(dst, c), ref.pop(dst, c)
								if got != want {
									t.Fatalf("cycle %d: port %d delivers %p, reference %p", c, dst, got, want)
								}
								if got == nil {
									break
								}
								delivered++
							}
						}
						n.CommitPops()
					}
					if n.TransferredFlits != ref.flits {
						t.Fatalf("moved %d flits, reference %d", n.TransferredFlits, ref.flits)
					}
					if delivered == 0 {
						t.Fatal("nothing was delivered; the schedule exercised nothing")
					}
				})
			}
		}
	}
}
