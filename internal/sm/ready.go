// The issue index: derived state that lets the issue stages pick a warp
// without looking at any warp that cannot issue. A hardware warp
// scheduler is a priority encoder over a ready bit-vector that the
// scoreboard and the load-return path update on events; this is the
// same thing in software.
//
// Each scheduler keeps bitsets with one bit per *position* in its warps
// list. The list is oldest-first, so "lowest set bit" is GTO's oldest
// warp and "lowest set bit at or after rrPos" is LRR's next one. There
// is one mask per issue kind (which port the warp's next instruction
// needs, as far as the warp's own state decides: kindOf), an asleep mask
// for warps whose ReadyAt lies in the future, and one mask per kernel
// (to take a whole kernel out when its gate or limiter says no).
//
// The kind masks are flipped at the events that change what kindOf
// reads (reclass). The asleep bit is set when a compute issue moves
// ReadyAt past the current cycle and cleared by the wake wheel: a ring
// of buckets, bucket c mod its length holding the warp slots due at
// cycle c, which Tick drains before issuing. A warp that retires asleep
// withdraws its wake, so a bucket names exactly the sleepers due at its
// cycle and waking one needs no look at the warp.
//
// Positions shift when a warp leaves the middle of the list, so
// finalizeWarp — once per warp lifetime — recomputes that scheduler's
// masks (rebuildSched).
//
// The index is derived: it is not part of Snapshot (Restore rebuilds it)
// and CheckInvariants compares it against a recomputation.

package sm

import (
	"fmt"
	"math/bits"

	"repro/internal/kern"
	"repro/internal/ring"
)

// issueKind is the port a warp's next instruction needs.
type issueKind uint8

const (
	kindMem issueKind = iota
	kindALU
	kindSFU
	numKinds
	// kindNone: slot free, warp done issuing, behind its load barrier, or
	// a load at the kernel's pending-load cap.
	kindNone = numKinds
)

// A scheduler's masks are rows: one per issue kind, then the asleep row,
// then one per kernel. SM.masks stores them a block at a time — the
// 64-position word w of every row of scheduler si together (block) — and
// pads a block to a power of two, so that the usual issue decision, for
// a scheduler with at most 64 warps, reads one cache line of masks. Bits
// at positions >= len(scheduler.warps) are zero.
const (
	rowAsleep = int(numKinds)
	rowKernel = rowAsleep + 1 // first of the per-kernel rows
)

// newIndex sizes the masks and the wake wheel for the configured warp
// count and latencies, from one backing allocation (s.index, which Init
// carries over from the SM's previous life).
func (s *SM) newIndex() {
	s.words = (s.cfg.SM.MaxWarps + 63) / 64
	s.rows = rowKernel + len(s.descs)
	for s.blockShift = 3; 1<<s.blockShift < s.rows; s.blockShift++ {
	}
	// The longest sleep is a compute result's latency; the wheel is
	// longer, so a wake is never filed under the bucket of the cycle it
	// is filed in.
	longest := max(s.cfg.SM.ALULat, s.cfg.SM.SFULat)
	wheelLen := 1
	for wheelLen <= longest {
		wheelLen <<= 1
	}
	s.wheelMask = int64(wheelLen - 1)
	nMasks := len(s.scheds) * s.words << s.blockShift
	s.index = ring.Zeroed(s.index, nMasks+s.words+wheelLen*s.words)
	backing := s.index
	s.masks, backing = backing[:nMasks:nMasks], backing[nMasks:]
	s.maskBuf, s.wheel = backing[:s.words:s.words], backing[s.words:]
	s.woken = -1
}

// block returns word w of every row of scheduler si: block(si, w)[r]
// holds positions 64w..64w+63 of row r.
func (s *SM) block(si, w int) []uint64 {
	at := (si*s.words + w) << s.blockShift
	return s.masks[at : at+s.rows]
}

// bit locates the resident warp in slot's bit in row r of its
// scheduler's masks: the word's index in s.masks and the bit within it.
// wAt[slot] is the bit's address in row 0, the word's index times 64
// plus the bit; the other rows' words follow within the block.
func (s *SM) bit(slot, r int) (int, uint64) {
	i := int(s.wAt[slot])
	return i>>6 + r, 1 << (i & 63)
}

// enter indexes the warp in slot at position pos of scheduler si's list:
// its place, its kernel bit and its kind.
func (s *SM) enter(slot, si, pos int) {
	s.wAt[slot] = int32((si*s.words+pos>>6)<<s.blockShift<<6 | pos&63)
	at, bit := s.bit(slot, rowKernel+int(s.warps[slot].Kernel))
	s.masks[at] |= bit
	s.reclass(slot)
}

// posOf returns the position of the resident warp in slot, a warp of
// scheduler si, in that scheduler's list.
func (s *SM) posOf(slot, si int) int {
	i := int(s.wAt[slot])
	return (i>>6>>s.blockShift-si*s.words)<<6 | i&63
}

// kindOf derives the issue kind of a warp from its state. These are
// exactly the checks of readyForMem/readyForCompute (reference_test.go)
// that depend on neither the cycle, the SM's port state nor a policy.
func (s *SM) kindOf(w *Warp) issueKind {
	if !w.Active || w.doneIssuing {
		return kindNone
	}
	if w.outN > 0 && w.minBarrier() <= w.IssuedInstrs {
		return kindNone
	}
	switch w.NextKind {
	case kern.MemLoad:
		if w.outN >= s.descs[w.Kernel].MaxPendingLoads {
			return kindNone
		}
		return kindMem
	case kern.MemStore:
		return kindMem
	case kern.ALU:
		return kindALU
	case kern.SFU:
		return kindSFU
	}
	return kindNone
}

// reclass brings the kind masks up to date after the resident warp in
// slot changed state. Called from the places that change what kindOf
// reads while the warp keeps its position: enter (launchTB), advanceWarp,
// onTokenDone and Drain (finalizeWarp rebuilds instead).
func (s *SM) reclass(slot int) {
	at, bit := s.bit(slot, 0)
	for c := 0; c < int(numKinds); c++ {
		s.masks[at+c] &^= bit
	}
	if c := s.kindOf(&s.warps[slot]); c != kindNone {
		s.masks[at+int(c)] |= bit
	}
}

// wakeBit locates the wake of the warp in slot, due at cycle at, in the
// wheel.
func (s *SM) wakeBit(slot int, at int64) (int, uint64) {
	return int(at&s.wheelMask)*s.words + slot>>6, 1 << (slot & 63)
}

// sleep records that the resident warp in slot cannot issue before its
// ReadyAt, which lies in the future, and files its wake.
func (s *SM) sleep(slot int) {
	at, bit := s.bit(slot, rowAsleep)
	s.masks[at] |= bit
	at, bit = s.wakeBit(slot, s.warps[slot].ReadyAt)
	s.wheel[at] |= bit
}

// wake clears the asleep bit of every warp that became ready since the
// last call. Ticks normally arrive on consecutive cycles and one bucket
// is drained; after a gap every bucket since the last tick is, at most
// once around the wheel, so no warp oversleeps by a revolution.
func (s *SM) wake(cycle int64) {
	for c := max(s.woken+1, cycle-s.wheelMask); c <= cycle; c++ {
		base := int(c&s.wheelMask) * s.words
		for wi, due := range s.wheel[base : base+s.words] {
			if due == 0 {
				continue
			}
			s.wheel[base+wi] = 0
			for ; due != 0; due &= due - 1 {
				at, bit := s.bit(wi<<6+bits.TrailingZeros64(due), rowAsleep)
				s.masks[at] &^= bit
			}
		}
	}
	s.woken = cycle
}

// rebuildSched recomputes scheduler si's masks, its warps' positions and
// their pending wakes from warp state.
func (s *SM) rebuildSched(si int) {
	clear(s.masks[si*s.words<<s.blockShift : (si+1)*s.words<<s.blockShift])
	for pos, slot := range s.scheds[si].warps {
		s.enter(slot, si, pos)
		if s.warps[slot].ReadyAt > s.woken {
			s.sleep(slot)
		}
	}
}

// rebuildIndex recomputes the whole index from warp state, as of the
// SM's current cycle.
func (s *SM) rebuildIndex() {
	clear(s.wheel)
	s.woken = s.now
	for si := range s.scheds {
		s.rebuildSched(si)
	}
}

// firstSet returns the lowest position >= from set in m, or -1.
func firstSet(m []uint64, from int) int {
	wi := from >> 6
	if wi >= len(m) {
		return -1
	}
	if b := m[wi] >> (from & 63) << (from & 63); b != 0 {
		return wi<<6 + bits.TrailingZeros64(b)
	}
	for wi++; wi < len(m); wi++ {
		if m[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(m[wi])
		}
	}
	return -1
}

// SleepingCandidates returns how many resident warps hold an
// instruction they could issue but for a result latency still running:
// the warps the asleep mask hides from the issue stages at the SM's
// current cycle.
func (s *SM) SleepingCandidates() int {
	n := 0
	for si := range s.scheds {
		for w := 0; w < s.words; w++ {
			blk := s.block(si, w)
			var cand uint64
			for _, kind := range blk[:numKinds] {
				cand |= kind
			}
			n += bits.OnesCount64(cand & blk[rowAsleep])
		}
	}
	return n
}

// checkIndex compares the index with a recomputation from warp state:
// every resident warp's position, its kind, kernel and asleep bits,
// nothing set past the end of a scheduler's list, and the wheel holding
// exactly the wakes of the sleepers.
func (s *SM) checkIndex() error {
	wheelLen := s.wheelMask + 1
	wakes := make([]uint64, len(s.wheel))
	for si := range s.scheds {
		warps := s.scheds[si].warps
		for pos, slot := range warps {
			w := &s.warps[slot]
			if got := s.posOf(slot, si); got != pos {
				return fmt.Errorf("warp %d: indexed at position %d of scheduler %d, listed at %d", slot, got, si, pos)
			}
			blk, bit := s.block(si, pos>>6), uint64(1)<<(pos&63)
			want := s.kindOf(w)
			for c := 0; c < int(numKinds); c++ {
				if got := blk[c]&bit != 0; got != (issueKind(c) == want) {
					return fmt.Errorf("warp %d: kind %d bit is %v, state says kind %d", slot, c, got, want)
				}
			}
			for k := range s.descs {
				if got := blk[rowKernel+k]&bit != 0; got != (k == int(w.Kernel)) {
					return fmt.Errorf("warp %d of kernel %d: kernel %d bit is %v", slot, w.Kernel, k, got)
				}
			}
			sleeps := w.ReadyAt > s.woken
			if got := blk[rowAsleep]&bit != 0; got != sleeps {
				return fmt.Errorf("warp %d: asleep bit is %v with ReadyAt %d, wakes applied through cycle %d", slot, got, w.ReadyAt, s.woken)
			}
			if sleeps {
				if w.ReadyAt-s.woken >= wheelLen {
					return fmt.Errorf("warp %d: sleeps until %d, past the %d-cycle wheel at cycle %d", slot, w.ReadyAt, wheelLen, s.woken)
				}
				at, bit := s.wakeBit(slot, w.ReadyAt)
				wakes[at] |= bit
			}
		}
		for w := len(warps) >> 6; w < s.words; w++ {
			for r, m := range s.block(si, w) {
				if m>>max(len(warps)-w<<6, 0) != 0 {
					return fmt.Errorf("scheduler %d: mask row %d has a bit set past its %d warps", si, r, len(warps))
				}
			}
		}
	}
	for i := range wakes {
		if missing := wakes[i] &^ s.wheel[i]; missing != 0 {
			slot := i%s.words<<6 + bits.TrailingZeros64(missing)
			return fmt.Errorf("warp %d: asleep until %d with no wake filed", slot, s.warps[slot].ReadyAt)
		}
		if stray := s.wheel[i] &^ wakes[i]; stray != 0 {
			return fmt.Errorf("wheel bucket %d holds a wake for warp %d, which does not sleep until then",
				i/s.words, i%s.words<<6+bits.TrailingZeros64(stray))
		}
	}
	return nil
}
