// Policy hook points. The SM consults three small interfaces each cycle;
// the paper's mechanisms (RBMI, QBMI, SMIL, DMIL, SMK's warp-instruction
// quota) are implemented against them in internal/core. The zero-cost
// defaults below reproduce the unmanaged baseline.
//
// Limiter.Allow and IssueGate.CanIssue are queries: the SM asks them as
// often or as rarely as it likes — today at most once per kernel per
// issue decision, whatever the number of that kernel's ready warps — so
// an implementation must not count, rate-limit or otherwise remember the
// asking. Everything a policy learns, it learns from the event methods.

package sm

// MemIssuePolicy arbitrates which kernel issues the SM's one memory
// instruction of this cycle when several kernels have ready candidates
// (the paper's BMI family plugs in here).
type MemIssuePolicy interface {
	// Pick returns the index into kernels of the winning candidate.
	// kernels holds the distinct kernel slots that have a ready memory
	// warp this cycle (the SM offers each kernel's oldest), ordered by
	// where the scan first met the kernel: schedulers in index order,
	// each scheduler's warps oldest first. Pick is only called with two
	// or more candidates; a result outside kernels counts as 0.
	Pick(kernels []int) int
	// OnIssue reports that kernel issued one memory instruction that
	// expanded into reqs coalesced requests.
	OnIssue(kernel, reqs int)
}

// Limiter caps in-flight memory instructions per kernel (the paper's MIL
// family). The SM reports the events the DMIL hardware counters observe.
type Limiter interface {
	// Allow reports whether kernel, currently holding inflight in-flight
	// memory accesses (coalesced requests), may issue another memory
	// instruction. It is a side-effect-free query: for a given kernel
	// and inflight the answer changes only through the methods below.
	Allow(kernel, inflight int) bool
	// OnRequest is called for each request that successfully accesses
	// the L1D (the MILG 10-bit request counter).
	OnRequest(kernel int)
	// OnRsFail is called for each reservation-failed access attempt
	// (the MILG 12-bit reservation-failure counter).
	OnRsFail(kernel int)
	// NoteInflight lets the MILG track the peak in-flight memory
	// instruction count (7-bit counter).
	NoteInflight(kernel, inflight int)
	// Tick runs once per SM cycle (drives interval timeouts).
	Tick(cycle int64)
}

// IssueGate gates all instruction issue of a kernel (SMK's periodic
// warp-instruction quota plugs in here).
type IssueGate interface {
	// CanIssue reports whether kernel may issue an instruction of any
	// kind. It is a side-effect-free query: the answer changes only
	// through OnIssue and Tick.
	CanIssue(kernel int) bool
	// OnIssue reports that kernel issued one warp instruction.
	OnIssue(kernel int)
	// Tick runs once per SM cycle, before any CanIssue of the cycle.
	Tick(cycle int64)
}

// NopMemPolicy is the unmanaged baseline: no arbitration between
// kernels. The SM then issues the globally oldest ready memory warp —
// greedy-then-oldest across schedulers, under which a memory-intensive
// kernel monopolizes the LSU (Section 3.2) — and never calls Pick; the
// choice is resolved when the policy is installed (New, SetPolicies).
type NopMemPolicy struct{}

func (NopMemPolicy) Pick(kernels []int) int   { return 0 }
func (NopMemPolicy) OnIssue(kernel, reqs int) {}

// NopLimiter never limits.
type NopLimiter struct{}

func (NopLimiter) Allow(kernel, inflight int) bool   { return true }
func (NopLimiter) OnRequest(kernel int)              {}
func (NopLimiter) OnRsFail(kernel int)               {}
func (NopLimiter) NoteInflight(kernel, inflight int) {}
func (NopLimiter) Tick(cycle int64)                  {}

// NopGate never gates.
type NopGate struct{}

func (NopGate) CanIssue(kernel int) bool { return true }
func (NopGate) OnIssue(kernel int)       {}
func (NopGate) Tick(cycle int64)         {}
