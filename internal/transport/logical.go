package transport

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// A logical flow is what the workload asks for: size bytes from src to dst,
// completed once. StartFlow carries it as one transport flow, which is the
// logical flow itself, or, as Options asks, on hidden member flows: MPTCP's
// subflows or RepFlow's two copies, each an ordinary DCTCP/Reno flow with
// its own flow ID, while the logical flow sends nothing and takes no ID.
// Either way a logical flow ends in complete, which feeds the FCT ring and
// calls OnFlowDone once.
//
// MPTCP. The paper compares against MPTCP [31] only qualitatively, citing
// the lack of a reliable ns-3 package (§5.1). Here each subflow is pinned
// (by its own flow ID) to whatever path the balancer gives it and never
// rerouted, so MPTCP has no congestion mismatch, matching §7's observation,
// while data is pulled dynamically: fast subflows fetch more chunks, slow
// ones fewer, approximating MPTCP's coupled scheduler without modeling LIA
// coupling. "Never rerouted" is load-bearing and pinned by test: a subflow
// chooses its path once, at its first segment, and keeps it for its whole
// life, through RTOs, fast retransmits and even link failures
// (f.PathChanges stays 0 under the stock ECMP wiring). Resilience comes
// only from the pull scheduler starving a stalled subflow of further
// chunks, never from moving it; a subflow whose path blackholes strands
// whatever chunks it already pulled. Only subflows opened after a topology
// change observe the updated path set.
//
// RepFlow replicates latency-sensitive short flows. Under ECMP the two
// copies hash independently, so with high probability they traverse
// diverse paths, and the first copy to deliver its last byte wins. The
// loser is cancelled at once: its retransmission timer is disarmed and its
// sender state dropped, so a replica stranded on a failed or congested path
// can neither inflate the logical flow's completion time nor register
// spurious timeouts. Packets of the cancelled copy still in flight drain
// normally (delivered or dropped by the fabric), keeping the
// packet-conservation ledger exact; late ACKs for a cancelled flow find no
// sender state and are ignored. Flows at or above the threshold are not
// replicated, so RepFlow's bandwidth overhead is confined to the short
// flows, which carry a tiny fraction of the bytes.
//
// This is what makes the RepFlow-vs-MPTCP comparison honest: RepFlow
// escapes a dead path by racing an independently hashed copy and cancelling
// the loser, while MPTCP must ride its pinned subflows to the end.

// MPTCPChunk is the pull granularity of the shared send buffer.
const MPTCPChunk = 64 * 1024

// DefaultRepFlowThreshold is the replicate-below size bound: flows smaller
// than 100 KB are cloned, matching the RepFlow paper's definition of "short".
const DefaultRepFlowThreshold = 100_000

// group carries one logical flow on its hidden members: MPTCP subflows that
// pull from one shared buffer, or two RepFlow copies, the primary first.
type group struct {
	lf      *Flow
	members []*Flow
	race    bool  // RepFlow: the first member to finish wins
	pool    int64 // MPTCP: bytes no subflow has pulled yet
	done    int   // MPTCP: members finished
}

// StartFlow opens a logical flow of size bytes from src to dst, carried as
// Opts asks, and begins sending at once. It returns the logical flow.
func (tr *Transport) StartFlow(src, dst int, size int64) *Flow {
	if size < 1 {
		size = 1
	}
	if tr.Opts.Subflows <= 0 && size >= tr.Opts.ReplicateBelow {
		return tr.open(src, dst, size, nil)
	}
	g := &group{lf: &Flow{
		Src: src, Dst: dst, SrcLeaf: tr.Net.LeafOf(src), DstLeaf: tr.Net.LeafOf(dst),
		Size: size, StartAt: tr.Eng.Now(), CurPath: net.PathAny,
	}}
	g.lf.grp = g
	if tr.Opts.Subflows <= 0 {
		g.race = true
		g.members = []*Flow{tr.open(src, dst, size, g), tr.open(src, dst, size, g)}
		tr.RepFlowsStarted++
		return g.lf
	}
	g.pool = size
	for i := 0; i < tr.Opts.Subflows && g.pool > 0; i++ {
		chunk := min(MPTCPChunk, g.pool)
		g.pool -= chunk
		g.members = append(g.members, tr.open(src, dst, chunk, g))
	}
	return g.lf
}

// Members returns the hidden flows that carry f's logical flow: its MPTCP
// subflows, or its RepFlow primary and replica. It is nil for a flow that
// carries itself.
func (f *Flow) Members() []*Flow {
	if f.grp == nil {
		return nil
	}
	return f.grp.members
}

// pull allocates more bytes from the shared buffer to subflow f, returning
// true if anything was granted.
func (g *group) pull(f *Flow) bool {
	if g.pool <= 0 {
		return false
	}
	chunk := min(MPTCPChunk, g.pool)
	g.pool -= chunk
	f.Size += chunk
	return true
}

// memberDone records a finished member. A race ends at its first finisher,
// whose rival is cancelled; a multipath flow ends with its last subflow (a
// subflow finishes only once pull has drained the shared buffer).
func (g *group) memberDone(f *Flow, now sim.Time) {
	tr := f.ep.tr
	if g.race {
		loser := g.members[1]
		if f == loser {
			loser = g.members[0]
			tr.ReplicaWins++
		}
		tr.cancel(loser)
	} else if g.done++; g.done < len(g.members) {
		return
	}
	tr.complete(g.lf, now)
}

// complete ends logical flow lf at now: its FCT enters the ring and
// OnFlowDone reports it. Every logical flow ends here exactly once.
func (tr *Transport) complete(lf *Flow, now sim.Time) {
	lf.Done = true
	lf.EndAt = now
	tr.recordFCT(lf.FCT())
	if tr.OnFlowDone != nil {
		tr.OnFlowDone(lf)
	}
}

// Unfinished returns the logical flows still open, in the order they
// started, for charging their elapsed time (Fig 17).
func (tr *Transport) Unfinished() []*Flow {
	active := make([]*Flow, 0, len(tr.active))
	for _, f := range tr.active {
		active = append(active, f)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
	open := active[:0]
	for _, f := range active {
		if f.grp != nil {
			f = f.grp.lf
		}
		// A group's members take consecutive IDs, so they sort together.
		if n := len(open); n == 0 || open[n-1] != f {
			open = append(open, f)
		}
	}
	return open
}

// cancel aborts an unfinished member flow: it is marked Done+Cancelled, its
// RTO timer is disarmed (a cancelled replica must never count as a timeout
// or loss), and its sender state is dropped from the endpoint and the active
// registry. The flow does not complete; only Balancer.OnFlowDone runs, so
// per-flow balancer state is still released. In-flight packets drain
// through the fabric normally and conservation accounting is unaffected.
// No-op on nil, finished or already-cancelled flows.
func (tr *Transport) cancel(f *Flow) {
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
	tr.flows[f.ID] = nil
	delete(tr.active, f.ID)
	tr.FlowsCancelled++
	tr.RedundantBytes += uint64(f.hiWater)
	f.ep.bal.OnFlowDone(f)
}
