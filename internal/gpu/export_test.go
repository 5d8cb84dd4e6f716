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
