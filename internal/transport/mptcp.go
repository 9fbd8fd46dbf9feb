package transport

import "github.com/hermes-repro/hermes/internal/sim"

// The paper compares against MPTCP [31] only qualitatively, citing the lack
// of a reliable ns-3 package (§5.1). This file supplies the missing piece: a
// multipath TCP built from k ordinary subflows over a shared send buffer.
// Each subflow is a full DCTCP/Reno flow pinned (by its own flow id) to
// whatever path the balancer gives it and never rerouted — so MPTCP has no
// congestion mismatch, matching §7's observation — while data is pulled
// dynamically: fast subflows fetch more chunks, slow ones fetch fewer,
// approximating MPTCP's coupled scheduler without modeling LIA coupling.
//
// "Never rerouted" is load-bearing and pinned by test: a subflow chooses its
// path once, at its first segment, and keeps it for its whole life — through
// RTOs, fast retransmits and even link failures (f.PathChanges stays 0 under
// the stock ECMP wiring). Resilience comes only from the pull scheduler
// starving a stalled subflow of further chunks, never from moving it; a
// subflow whose path blackholes strands whatever chunks it already pulled.
// Only subflows opened after a topology change observe the updated path set.
// This is what makes the RepFlow-vs-MPTCP comparison honest: RepFlow escapes
// a dead path by racing an independently-hashed copy and cancelling the
// loser, while MPTCP must ride its pinned subflows to the end.

// MPTCPChunk is the pull granularity of the shared send buffer.
const MPTCPChunk = 64 * 1024

// MPTCPGroup is one logical multipath flow.
type MPTCPGroup struct {
	Size     int64
	Src, Dst int
	StartAt  sim.Time
	EndAt    sim.Time
	Done     bool

	Subflows []*Flow

	// OnDone fires when the last byte of the logical flow is delivered.
	OnDone func(*MPTCPGroup)

	remaining int64 // bytes not yet allocated to any subflow
	doneCount int
}

// FCT returns the logical flow's completion time, valid once Done.
func (g *MPTCPGroup) FCT() sim.Time { return g.EndAt - g.StartAt }

// StartMPTCP opens a logical flow of size bytes carried by up to k
// subflows. Subflows are ordinary flows (the balancer sees k distinct flow
// ids — under ECMP they hash independently, exactly like MPTCP over ECMP in
// practice). Subflows are hidden from Transport.OnFlowDone; completion is
// reported via the group's OnDone.
func (tr *Transport) StartMPTCP(src, dst int, size int64, k int) *MPTCPGroup {
	if size < 1 {
		size = 1
	}
	if k < 1 {
		k = 1
	}
	g := &MPTCPGroup{
		Size: size, Src: src, Dst: dst,
		StartAt:   tr.Eng.Now(),
		remaining: size,
	}
	for i := 0; i < k && g.remaining > 0; i++ {
		chunk := int64(MPTCPChunk)
		if chunk > g.remaining {
			chunk = g.remaining
		}
		g.remaining -= chunk
		f := tr.StartFlow(src, dst, chunk)
		f.Hidden = true
		f.group = g
		g.Subflows = append(g.Subflows, f)
	}
	return g
}

// pull allocates more bytes from the group's shared buffer to subflow f,
// returning true if anything was granted.
func (g *MPTCPGroup) pull(f *Flow) bool {
	if g.remaining <= 0 {
		return false
	}
	chunk := int64(MPTCPChunk)
	if chunk > g.remaining {
		chunk = g.remaining
	}
	g.remaining -= chunk
	f.Size += chunk
	return true
}

// childDone records a finished subflow and completes the group when the
// last one drains.
func (g *MPTCPGroup) childDone(f *Flow, now sim.Time) {
	g.doneCount++
	if g.doneCount == len(g.Subflows) && g.remaining == 0 {
		g.Done = true
		g.EndAt = now
		f.ep.tr.recordFCT(g.FCT())
		if g.OnDone != nil {
			g.OnDone(g)
		}
	}
}
