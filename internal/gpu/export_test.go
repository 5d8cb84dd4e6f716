package gpu

// ArmedStallMemos counts the L1s and the L2 partitions currently holding
// a remembered reservation failure, for tests that must snapshot on a
// cycle where that derived state is live.
func ArmedStallMemos(g *GPU) (l1, l2 int) {
	for _, s := range g.SMs {
		if s.L1.StallMemoArmed() {
			l1++
		}
	}
	for _, part := range g.parts {
		if part.l2.StallMemoArmed() {
			l2++
		}
	}
	return l1, l2
}

// InFlight reports the in-flight requests held by each kind of
// component, for tests that must snapshot on a cycle where every part
// of the snapshot graph is populated.
type InFlight struct {
	SM, L2, DRAM, PartInQ, PartResp, ReqNet, RespNet int
}

func InFlightOf(g *GPU) InFlight {
	var f InFlight
	for _, s := range g.SMs {
		f.SM += s.PendingRequests()
	}
	for _, part := range g.parts {
		f.L2 += part.l2.PendingRequests()
		f.DRAM += part.ch.PendingRequests()
		f.PartInQ += part.inQ.Len()
		f.PartResp += part.resp.Len()
	}
	f.ReqNet = g.reqNet.PendingRequests()
	f.RespNet = g.respNet.PendingRequests()
	return f
}

// DrainRetired empties the pool of retired machines, so the next New
// builds in memory nothing has used.
func DrainRetired() {
	for retired.Get() != nil {
	}
}

// PoolAllocs returns how many requests and instruction tokens the
// machine's pools have allocated since New, rather than served from what
// its predecessor owned.
func PoolAllocs(g *GPU) (reqs, toks uint64) {
	return g.pool.ReqAllocs + g.hpool.ReqAllocs, g.pool.TokAllocs + g.hpool.TokAllocs
}
