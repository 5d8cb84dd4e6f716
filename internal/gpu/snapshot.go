// Whole-machine snapshot/restore: Snapshot / Restore and the checkpoint
// forms SnapshotCheckpoint / EncodeSnapshot / DecodeSnapshot. Every job
// runs from cycle 0, so no job restores a snapshot: bench/ (its snapshot
// and checkpoint drives) is this file's only non-test caller, beside the
// restore-and-continue tests. A scheme's Warmup prefix is not a snapshot
// but the first of two RunCycles legs on one machine.
//
// One mem.Cloner spans the whole capture (and another the whole
// restore): the requests of one memory instruction may simultaneously
// sit in an SM's LSU, its L1 MSHRs, the crossbars, an L2 partition and
// DRAM, and they share one InstrToken — a per-component copy would tear
// that aliasing. Clones are freshly allocated, never pool-drawn, so the
// snapshot owns its memory: releasing (and poisoning) the originals
// afterwards cannot reach it, and restoring the same snapshot many
// times yields disjoint machines.
//
// Policies are deliberately outside the snapshot boundary. A policy
// object may hold arbitrary cross-SM state (global limiters, hook
// closures) that the cloner cannot see, so Snapshot refuses to run
// while stateful (pointer-typed) policies are installed;
// SnapshotCheckpoint encodes their state through ckpt instead, and
// nothing decodes it back into a machine.

package gpu

import (
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/dram"
	"repro/internal/icnt"
	"repro/internal/mem"
	"repro/internal/sm"
)

// Snapshot is the captured state of a whole GPU. Immutable once taken;
// Restore deep-copies out of it, so one snapshot can seed any number of
// machines (concurrently, if each restore targets a different GPU).
type Snapshot struct {
	cycle int64

	sms      []*sm.Snapshot
	l2s      []*cache.Snapshot
	drams    []*dram.Snapshot
	partInQ  [][]*mem.Request
	partResp [][]l2Response
	reqNet   *icnt.Snapshot
	respNet  *icnt.Snapshot

	// requests/tokens count the distinct in-flight objects captured.
	// Nothing reads them; they stay because they are part of the
	// encoded checkpoint format.
	requests int
	tokens   int

	// policies[sm][slot] is the ckpt-encoded state of the policy
	// instance installed in that slot, captured only by
	// SnapshotCheckpoint (nil for plain Snapshot captures and for slots
	// holding nil or stateless value-typed policies). A shared instance
	// encodes to identical bytes in every SM's row. Restore ignores
	// them: they are part of the encoded checkpoint, which is what
	// bench/ sizes and times.
	policies [][3][]byte
}

// Cycle returns the simulation cycle the snapshot was taken at.
func (sn *Snapshot) Cycle() int64 { return sn.cycle }

// Snapshot captures the machine's full state. It fails when stateful
// (pointer-typed) policy instances are installed: their state lives
// outside the engine's object graph, so a restore could not reproduce
// it. Take snapshots on an unmanaged machine (before InstallPolicies).
func (g *GPU) Snapshot() (*Snapshot, error) {
	for _, p := range g.policies {
		for slot := 0; slot < 3; slot++ {
			if p[slot] == nil {
				continue
			}
			if reflect.ValueOf(p[slot]).Kind() == reflect.Pointer {
				return nil, fmt.Errorf("gpu: snapshot with stateful policy %T installed is unsupported; snapshot before InstallPolicies", p[slot])
			}
		}
	}
	return g.capture(), nil
}

// capture is the unguarded snapshot core shared by Snapshot (which
// refuses stateful policies) and SnapshotCheckpoint (which
// serializes them alongside).
func (g *GPU) capture() *Snapshot {
	cl := mem.NewCloner()
	sn := &Snapshot{cycle: g.cycle}
	for _, s := range g.SMs {
		sn.sms = append(sn.sms, s.Snapshot(cl))
	}
	for _, part := range g.parts {
		sn.l2s = append(sn.l2s, part.l2.Snapshot(cl))
		sn.drams = append(sn.drams, part.ch.Snapshot(cl))
		sn.partInQ = append(sn.partInQ, part.inQ.Snapshot(cl.Request))
		sn.partResp = append(sn.partResp, part.resp.Snapshot(func(r l2Response) l2Response {
			return l2Response{req: cl.Request(r.req), readyAt: r.readyAt}
		}))
	}
	sn.reqNet = g.reqNet.Snapshot(cl)
	sn.respNet = g.respNet.Snapshot(cl)
	sn.requests = cl.Requests()
	sn.tokens = cl.Tokens()
	return sn
}

// SnapshotCheckpoint captures the machine's full state for a checkpoint.
// Unlike Snapshot (which refuses stateful policies because a machine
// restored from it installs fresh ones), it serializes installed
// pointer-typed policy instances with the machine via the ckpt codec.
// Policies holding state the codec cannot express (maps, closures) fail
// here.
func (g *GPU) SnapshotCheckpoint() (*Snapshot, error) {
	sn := g.capture()
	sn.policies = make([][3][]byte, len(g.policies))
	for i, row := range g.policies {
		for slot := 0; slot < 3; slot++ {
			p := row[slot]
			if p == nil || reflect.ValueOf(p).Kind() != reflect.Pointer {
				continue // stateless or absent: factories rebuild it
			}
			blob, err := ckpt.Marshal(p)
			if err != nil {
				return nil, fmt.Errorf("gpu: checkpoint: sm %d policy %T: %w", i, p, err)
			}
			sn.policies[i][slot] = blob
		}
	}
	return sn, nil
}

// EncodeSnapshot serializes a snapshot to bytes for persistence.
func EncodeSnapshot(sn *Snapshot) ([]byte, error) {
	return ckpt.Marshal(sn)
}

// DecodeSnapshot deserializes a snapshot produced by EncodeSnapshot.
// Corrupt input yields an error, never a panic.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	sn := &Snapshot{}
	if err := ckpt.Unmarshal(data, sn); err != nil {
		return nil, err
	}
	return sn, nil
}

// Restore overwrites the machine's state from sn. The GPU must have the
// geometry the snapshot was taken from (same config-derived SM count,
// partition count, cache/queue shapes); its pool keeps its free lists
// and its policies are untouched — install the main leg's policies with
// InstallPolicies afterwards. sn itself is never mutated, so concurrent
// restores of one snapshot into different GPUs are safe.
func (g *GPU) Restore(sn *Snapshot) error {
	if len(sn.sms) != len(g.SMs) {
		return fmt.Errorf("gpu: restore: snapshot has %d SMs, machine has %d", len(sn.sms), len(g.SMs))
	}
	if len(sn.l2s) != len(g.parts) {
		return fmt.Errorf("gpu: restore: snapshot has %d partitions, machine has %d", len(sn.l2s), len(g.parts))
	}
	cl := mem.NewCloner()
	for i, s := range g.SMs {
		if err := s.Restore(sn.sms[i], cl); err != nil {
			return err
		}
	}
	for p, part := range g.parts {
		if err := part.l2.Restore(sn.l2s[p], cl); err != nil {
			return fmt.Errorf("gpu: restore: partition %d: %w", p, err)
		}
		if err := part.ch.Restore(sn.drams[p], cl); err != nil {
			return fmt.Errorf("gpu: restore: partition %d: %w", p, err)
		}
		part.inQ.Restore(sn.partInQ[p], cl.Request)
		part.resp.Restore(sn.partResp[p], func(r l2Response) l2Response {
			return l2Response{req: cl.Request(r.req), readyAt: r.readyAt}
		})
	}
	if err := g.reqNet.Restore(sn.reqNet, cl); err != nil {
		return err
	}
	if err := g.respNet.Restore(sn.respNet, cl); err != nil {
		return err
	}
	g.cycle = sn.cycle
	return nil
}

// InstallPolicies replaces the per-SM issue policies and cache policy
// attachments with the ones opts describes — New installs through here
// too: fresh policy instances from the factories, a fresh UMON per L1
// when UCP is enabled, and the per-kernel bypass vector.
//
// This is the managed-leg half of the snapshot discipline: warm the
// machine unmanaged, snapshot or restore, then InstallPolicies and run
// the managed leg.
func (g *GPU) InstallPolicies(opts *Options) {
	n := len(g.descs)
	var policies [][3]any
	for i, s := range g.SMs {
		var mp sm.MemIssuePolicy
		var lim sm.Limiter
		var gate sm.IssueGate
		if opts.Policies.MemPolicy != nil {
			mp = opts.Policies.MemPolicy(i, n)
		}
		if opts.Policies.Limiter != nil {
			lim = opts.Policies.Limiter(i, n)
		}
		if opts.Policies.Gate != nil {
			gate = opts.Policies.Gate(i, n)
		}
		policies = append(policies, [3]any{mp, lim, gate})
		s.SetPolicies(mp, lim, gate)
		if opts.UCP {
			s.L1.AttachUMON()
		}
		if opts.BypassL1 != nil {
			s.L1.SetBypass(opts.BypassL1)
		}
	}
	g.policies = policies
}
