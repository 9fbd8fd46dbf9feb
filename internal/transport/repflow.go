package transport

import "github.com/hermes-repro/hermes/internal/sim"

// RepFlow replicates latency-sensitive short flows: the sender opens two
// identical copies of the flow, each an ordinary DCTCP/Reno flow with its own
// flow id — under ECMP the copies hash independently, so with high
// probability they traverse diverse paths — and the first copy to deliver its
// last byte wins. The loser is cancelled immediately: its retransmission
// timer is disarmed and its sender state dropped, so a replica stranded on a
// failed or congested path can neither inflate the logical flow's completion
// time nor register spurious timeouts. Packets of the cancelled copy still in
// flight drain normally (delivered or dropped by the fabric), keeping the
// packet-conservation ledger exact; late ACKs for a cancelled flow find no
// sender state and are ignored.
//
// Flows at or above the replication threshold are not replicated — RepFlow's
// bandwidth overhead is confined to the short flows, which carry a tiny
// fraction of the bytes.

// DefaultRepFlowThreshold is the replicate-below size bound: flows smaller
// than 100 KB are cloned, matching the RepFlow paper's definition of "short".
const DefaultRepFlowThreshold = 100_000

// RepFlowGroup is one replicated logical flow: two hidden transport flows
// carrying the same payload, first completion wins.
type RepFlowGroup struct {
	Size     int64
	Src, Dst int
	StartAt  sim.Time
	EndAt    sim.Time
	Done     bool

	// Primary and Replica are the two copies; Winner points at whichever
	// delivered first (valid once Done).
	Primary, Replica *Flow
	Winner           *Flow

	// OnDone fires when the first copy completes, after the loser has been
	// cancelled.
	OnDone func(*RepFlowGroup)
}

// FCT returns the logical flow's completion time, valid once Done.
func (g *RepFlowGroup) FCT() sim.Time { return g.EndAt - g.StartAt }

// StartRepFlow opens a replicated flow of size bytes from src to dst. Both
// copies are hidden from Transport.OnFlowDone; completion is reported via the
// group's OnDone exactly once.
func (tr *Transport) StartRepFlow(src, dst int, size int64) *RepFlowGroup {
	g := &RepFlowGroup{Size: size, Src: src, Dst: dst, StartAt: tr.Eng.Now()}
	g.Primary = tr.startCopy(g, src, dst, size)
	g.Replica = tr.startCopy(g, src, dst, size)
	tr.RepFlowsStarted++
	return g
}

func (tr *Transport) startCopy(g *RepFlowGroup, src, dst int, size int64) *Flow {
	f := tr.StartFlow(src, dst, size)
	f.Hidden = true
	f.rep = g
	return f
}

// childDone races the two copies: the first caller wins the group and the
// loser is cancelled on the spot.
func (g *RepFlowGroup) childDone(f *Flow, now sim.Time) {
	if g.Done {
		return
	}
	g.Done = true
	g.EndAt = now
	g.Winner = f
	tr := f.ep.tr
	tr.recordFCT(g.FCT())
	loser := g.Primary
	if f == g.Primary {
		loser = g.Replica
	} else {
		tr.ReplicaWins++
	}
	tr.CancelFlow(loser)
	if g.OnDone != nil {
		g.OnDone(g)
	}
}

// CancelFlow aborts an unfinished flow: it is marked Done+Cancelled, its RTO
// timer is disarmed (a cancelled replica must never count as a timeout or
// loss), and its sender state is dropped from the endpoint and the active
// registry. The flow does NOT report through Transport.OnFlowDone or the
// balancer-visible completion time; only Balancer.OnFlowDone runs, so
// per-flow balancer state is still released. In-flight packets drain through
// the fabric normally and conservation accounting is unaffected. No-op on
// nil, finished or already-cancelled flows.
func (tr *Transport) CancelFlow(f *Flow) {
	if f == nil || f.Done {
		return
	}
	f.Done = true
	f.Cancelled = true
	f.EndAt = tr.Eng.Now()
	if f.rtoTimer != nil {
		f.rtoTimer.Cancel()
		f.rtoTimer = nil
	}
	delete(f.ep.flows, f.ID)
	delete(tr.active, f.ID)
	tr.FlowsCancelled++
	tr.RedundantBytes += uint64(f.hiWater)
	f.ep.bal.OnFlowDone(f)
}
