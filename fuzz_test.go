package gcke

import (
	"slices"
	"testing"
)

// FuzzSchemeValidate drives Scheme.Validate and Scheme.Name over
// arbitrary field combinations — including kinds far outside the defined
// enums and per-kernel slices of every arity — asserting the properties
// drivers rely on when they assemble sweeps from user flags:
//
//   - neither Validate nor Name ever panics;
//   - an accepted scheme names defined partition, memory issue and
//     limiting kinds only (the engine would run any other as a
//     different scheme);
//   - Validate catches every per-kernel arity mismatch it documents, so
//     a scheme it accepts can never fail an arity check deeper in the
//     engine;
//   - an accepted manual partition gives every kernel at least one TB
//     and an accepted SMIL cap is never negative;
//   - Name always renders something (labels key result tables).
func FuzzSchemeValidate(f *testing.F) {
	f.Add(0, 0, 0, 2, uint8(0), false, false, false, 2, 1)
	f.Add(int(PartitionSMK), int(MemIssueQBMI), int(LimitNone), 2, uint8(1), true, false, false, 2, 1)
	f.Add(int(PartitionManual), 0, int(LimitStatic), 3, uint8(2), false, true, true, 3, 1)
	f.Add(int(PartitionWarpedSlicerDyn), int(MemIssueRBMI), int(LimitL2MIL), 1, uint8(3), false, false, true, -1, 1)
	f.Add(-5, 99, 42, 0, uint8(255), true, true, true, 100, 1)
	f.Add(99, 7, 42, 2, uint8(0), false, false, false, 2, 1) // undefined kinds, nothing else amiss
	// Entries that cannot run: no TBs, negative TBs, a negative cap.
	f.Add(int(PartitionManual), 0, int(LimitNone), 2, uint8(0), false, false, false, 2, 0)
	f.Add(int(PartitionManual), 0, int(LimitStatic), 2, uint8(2), false, false, false, 2, -1)
	f.Add(int(PartitionWarpedSlicer), 0, int(LimitStatic), 2, uint8(2), false, false, false, 0, -1)
	f.Fuzz(func(t *testing.T, part, mem, lim, nKernels int, arity uint8,
		smkQuota, ucp, tbt bool, manualLen, entry int) {
		if nKernels < 0 || nKernels > 8 {
			nKernels = 2
		}
		if manualLen < 0 || manualLen > 8 {
			manualLen = nKernels
		}
		// Per-kernel slice arities derived from one fuzzed byte so the
		// fuzzer can explore matched and mismatched combinations.
		staticLen := int(arity % 5)
		bypassLen := int(arity / 5 % 5)
		s := Scheme{
			Partition:          PartitionKind(part),
			MemIssue:           MemIssueKind(mem),
			Limiting:           LimitKind(lim),
			SMKQuota:           smkQuota,
			UCP:                ucp,
			TBThrottle:         tbt,
			QBMIRefreshAllZero: arity%2 == 0,
		}
		if staticLen > 0 {
			s.StaticLimits = make([]int, staticLen)
			s.StaticLimits[0] = entry
		}
		if bypassLen > 0 {
			s.BypassL1 = make([]bool, bypassLen)
		}
		if manualLen > 0 {
			s.ManualTBs = make([]int, manualLen)
			for i := range s.ManualTBs {
				s.ManualTBs[i] = 1
			}
			s.ManualTBs[0] = entry
		}

		err := s.Validate(nKernels)
		if name := s.Name(); name == "" {
			t.Fatal("Scheme.Name rendered empty")
		}
		if err != nil {
			return
		}
		if !slices.Contains([]PartitionKind{PartitionWarpedSlicer, PartitionSMK, PartitionSpatial, PartitionLeftover,
			PartitionEven, PartitionManual, PartitionWarpedSlicerDyn}, s.Partition) ||
			!slices.Contains([]MemIssueKind{MemIssueDefault, MemIssueRBMI, MemIssueQBMI}, s.MemIssue) ||
			!slices.Contains([]LimitKind{LimitNone, LimitStatic, LimitDMIL, LimitGlobalDMIL, LimitL2MIL}, s.Limiting) {
			t.Fatalf("accepted undefined kinds: partition %d, memory issue %d, limiting %d", s.Partition, s.MemIssue, s.Limiting)
		}
		// Accepted schemes must have consistent per-kernel arities — the
		// engine indexes these slices by kernel without re-checking.
		if s.Limiting == LimitStatic && len(s.StaticLimits) != nKernels {
			t.Fatalf("accepted LimitStatic with %d limits for %d kernels", len(s.StaticLimits), nKernels)
		}
		if s.Partition == PartitionManual && len(s.ManualTBs) != nKernels {
			t.Fatalf("accepted PartitionManual with %d quotas for %d kernels", len(s.ManualTBs), nKernels)
		}
		if s.BypassL1 != nil && len(s.BypassL1) != nKernels {
			t.Fatalf("accepted BypassL1 with %d entries for %d kernels", len(s.BypassL1), nKernels)
		}
		for _, n := range s.ManualTBs {
			if s.Partition == PartitionManual && n < 1 {
				t.Fatalf("accepted PartitionManual with ManualTBs %v", s.ManualTBs)
			}
		}
		for _, l := range s.StaticLimits {
			if s.Limiting == LimitStatic && l < 0 {
				t.Fatalf("accepted LimitStatic with StaticLimits %v", s.StaticLimits)
			}
		}
		if s.SMKQuota && (s.MemIssue != MemIssueDefault || s.Limiting != LimitNone) {
			t.Fatal("accepted SMKQuota combined with a memory mechanism")
		}
	})
}
