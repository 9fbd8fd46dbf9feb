package transport

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

func repflowFabric(t *testing.T) (*sim.Engine, *net.Network, *Transport) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// modBalancer pins path = flowID % 2, so the two copies of a RepFlow
	// group (consecutive flow ids) always land on distinct spines.
	tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return &modBalancer{} })
	return eng, nw, tr
}

// winner returns the copy of replicated flow lf that completed, done and
// not cancelled; nil unless exactly one copy did.
func winner(lf *Flow) *Flow {
	var w *Flow
	for _, m := range lf.Members() {
		if m.Done && !m.Cancelled {
			if w != nil {
				return nil
			}
			w = m
		}
	}
	return w
}

// TestRepFlowFirstCompletionWins: on a healthy fabric the race resolves to
// exactly one winner, the loser is cancelled, OnDone fires once, and the
// logical FCT equals the winner's.
func TestRepFlowFirstCompletionWins(t *testing.T) {
	eng, _, tr := repflowFabric(t)
	done := 0
	tr.OnFlowDone = func(*Flow) { done++ }
	tr.Opts.ReplicateBelow = DefaultRepFlowThreshold
	g := tr.StartFlow(0, 2, 50_000)
	primary, replica := g.Members()[0], g.Members()[1]
	if !primary.Hidden || !replica.Hidden {
		t.Fatal("RepFlow copies must be hidden from Transport.OnFlowDone")
	}
	eng.Run(sim.Second)
	if !g.Done || done != 1 {
		t.Fatalf("group done=%v callbacks=%d", g.Done, done)
	}
	w := winner(g)
	if w == nil || (w != primary && w != replica) {
		t.Fatalf("winner %v is neither copy", w)
	}
	loser := primary
	if w == primary {
		loser = replica
	}
	if !w.Done || w.Cancelled {
		t.Fatal("winner must be done and not cancelled")
	}
	if !loser.Done || !loser.Cancelled {
		t.Fatal("loser must be cancelled")
	}
	if w.AckedBytes() != g.Size {
		t.Fatalf("winner acked %d bytes, want %d", w.AckedBytes(), g.Size)
	}
	if g.FCT() != w.EndAt-w.StartAt {
		t.Fatalf("group FCT %v != winner FCT", g.FCT())
	}
	if tr.RepFlowsStarted != 1 || tr.FlowsCancelled != 1 {
		t.Fatalf("counters: started=%d cancelled=%d", tr.RepFlowsStarted, tr.FlowsCancelled)
	}
	if tr.ActiveCount() != 0 {
		t.Fatalf("%d flows still active after the race resolved", tr.ActiveCount())
	}
	if tr.RedundantBytes == 0 || tr.RedundantBytes > uint64(g.Size) {
		t.Fatalf("redundant bytes %d outside (0, %d]", tr.RedundantBytes, g.Size)
	}
}

// TestRepFlowEscapesBlackholedPath: with one copy pinned to a blackholed
// spine, the other copy wins the race in microseconds — far inside the 10 ms
// minimum RTO the stranded copy would otherwise serve — and the cancelled
// copy never registers a timeout ("cancelled packets must not register as
// losses").
func TestRepFlowEscapesBlackholedPath(t *testing.T) {
	eng, nw, tr := repflowFabric(t)
	// Kill spine 0 silently: links stay up, everything transiting it drops.
	nw.Spines[0].AddDropFn(func(*net.Packet) bool { return true })

	// Flow ids start at 1: the first copy (id 1) pins to the live spine 1,
	// the replica (id 2) to the dead spine 0. Swap roles by starting a
	// throwaway flow first so the primary is the doomed one.
	doomed := tr.StartFlow(1, 3, 1) // id 1 occupies the live slot
	tr.Opts.ReplicateBelow = DefaultRepFlowThreshold
	g := tr.StartFlow(0, 2, 30_000)
	primary, replica := g.Members()[0], g.Members()[1]
	if primary.CurPath != 0 && primary.ID%2 != 0 {
		t.Fatalf("test setup: primary id %d should pin to spine 0", primary.ID)
	}
	eng.Run(sim.Second)
	_ = doomed // stranded on the dead spine; irrelevant to the assertions

	if !g.Done {
		t.Fatal("RepFlow did not finish despite one healthy path")
	}
	if winner(g) != replica {
		t.Fatalf("winner = primary (path %d); want the replica on the live spine",
			primary.CurPath)
	}
	if tr.ReplicaWins != 1 {
		t.Fatalf("ReplicaWins = %d, want 1", tr.ReplicaWins)
	}
	if g.FCT() >= 10*sim.Millisecond {
		t.Fatalf("FCT %v not inside the stranded copy's RTO; replication did not help", g.FCT())
	}
	if !primary.Cancelled {
		t.Fatal("stranded primary not cancelled")
	}
	if primary.Timeouts() != 0 {
		t.Fatalf("cancelled copy served %d RTOs; cancellation must disarm the timer",
			primary.Timeouts())
	}
}

// TestRepFlowCancelIsFinal: cancelling is idempotent, and a finished flow
// cannot be cancelled.
func TestRepFlowCancelIsFinal(t *testing.T) {
	eng, _, tr := repflowFabric(t)
	f := tr.StartFlow(0, 2, 10_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	tr.cancel(f)
	if f.Cancelled {
		t.Fatal("finished flow marked cancelled")
	}
	if tr.FlowsCancelled != 0 {
		t.Fatal("cancel of a finished flow counted")
	}

	tr.Opts.ReplicateBelow = DefaultRepFlowThreshold
	g := tr.StartFlow(0, 2, 10_000)
	primary, replica := g.Members()[0], g.Members()[1]
	tr.cancel(replica)
	tr.cancel(replica) // second cancel is a no-op
	if tr.FlowsCancelled != 1 {
		t.Fatalf("FlowsCancelled = %d, want 1", tr.FlowsCancelled)
	}
	eng.Run(eng.Now() + sim.Second) // eng.Run takes an absolute deadline
	if !g.Done || winner(g) != primary {
		t.Fatal("primary did not win after replica cancellation")
	}
}

// TestMPTCPSubflowsNeverRerouted pins the documented MPTCP contract: a
// subflow picks its path at its first segment and keeps it for life, even
// when that path blackholes mid-transfer. Resilience may only come from the
// pull scheduler starving the stalled subflow — never from rerouting it.
func TestMPTCPSubflowsNeverRerouted(t *testing.T) {
	eng, nw, tr := repflowFabric(t)
	tr.Opts.Subflows = 2
	g := tr.StartFlow(0, 2, 4_000_000)
	if len(g.Members()) != 2 {
		t.Fatalf("%d subflows, want 2", len(g.Members()))
	}
	// Let both subflows start, then blackhole spine 0 under them.
	eng.Run(2 * sim.Millisecond)
	paths := make([]int, len(g.Members()))
	for i, sf := range g.Members() {
		if !sf.Started() {
			t.Fatalf("subflow %d not started before onset", i)
		}
		paths[i] = sf.CurPath
	}
	nw.Spines[0].AddDropFn(func(*net.Packet) bool { return true })
	eng.Run(500 * sim.Millisecond)

	for i, sf := range g.Members() {
		if sf.PathChanges != 0 {
			t.Errorf("subflow %d rerouted %d times; MPTCP subflows must stay pinned",
				i, sf.PathChanges)
		}
		if sf.CurPath != paths[i] {
			t.Errorf("subflow %d moved from path %d to %d", i, paths[i], sf.CurPath)
		}
	}
	// The subflow pinned to the dead spine must be stalled, not finished —
	// if this fires, the scenario stopped exercising the pin.
	stalled := false
	for _, sf := range g.Members() {
		if nw.PathSpine(sf.CurPath) == 0 && !sf.Done {
			stalled = true
		}
	}
	if !stalled {
		t.Log("no subflow stranded on the dead spine; pin not exercised this run")
	}
	if g.Done {
		t.Error("MPTCP group finished through a blackholed subflow; pull scheduler must not bypass a stranded chunk")
	}
}

// TestUnfinishedListsEachLogicalFlowOnce: with spine 0 blackholed under
// path = flowID % 2, an MPTCP flow with two subflows stranded, a plain flow
// on the dead spine and two flows that finish leave exactly the first two
// open, each listed once, in start order, and OnFlowDone runs once for each
// of the other two.
func TestUnfinishedListsEachLogicalFlowOnce(t *testing.T) {
	eng, nw, tr := repflowFabric(t)
	nw.Spines[0].AddDropFn(func(*net.Packet) bool { return true })
	var done []*Flow
	tr.OnFlowDone = func(f *Flow) { done = append(done, f) }

	tr.Opts.Subflows = 4
	mptcp := tr.StartFlow(0, 2, 4_000_000) // subflows 1-4; 2 and 4 stranded
	tr.Opts.Subflows = 0
	live := tr.StartFlow(1, 3, 100_000) // 5
	dead := tr.StartFlow(1, 3, 100_000) // 6
	tr.Opts.ReplicateBelow = DefaultRepFlowThreshold
	race := tr.StartFlow(0, 3, 50_000) // 7 wins, 8 is cancelled
	eng.Run(500 * sim.Millisecond)

	open := tr.Unfinished()
	if len(open) != 2 || open[0] != mptcp || open[1] != dead {
		t.Fatalf("Unfinished = %v, want the MPTCP flow then flow %d", open, dead.ID)
	}
	if mptcp.ID != 0 || race.ID != 0 {
		t.Errorf("logical flows took IDs %d and %d, want none", mptcp.ID, race.ID)
	}
	if len(done) != 2 || done[0] == done[1] || (done[0] != live && done[0] != race) ||
		(done[1] != live && done[1] != race) {
		t.Fatalf("OnFlowDone saw %v, want flow %d and the race, once each", done, live.ID)
	}
	if tr.ActiveCount() != 3 {
		t.Errorf("%d transport flows active, want 3 (two subflows and flow %d)", tr.ActiveCount(), dead.ID)
	}
}
