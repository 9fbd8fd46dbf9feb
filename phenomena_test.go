package hermes

// Phenomenon regression tests: each §2.2.2 motivating observation of the
// paper is pinned as an executable assertion, so simulator changes that
// would break the reproduced dynamics fail loudly.

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Example 2 (Fig 2): a DCTCP flow sprayed equally over an asymmetric fabric
// with a 9 Gbps UDP flow on the only shared path collapses far below the
// ~11 Gbps of available capacity.
func TestPhenomenonCongestionMismatchUnderAsymmetry(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 3, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFabricLink(0, 1, 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*"}
	})
	udp := &transport.UDPSender{Eng: eng, Host: nw.Hosts[0], Dst: 4, RateBps: 9e9, Paths: []int{0}}
	udp.Start()
	f := tr.StartFlow(2, 5, 50_000_000)
	eng.Run(2 * sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	gbps := float64(f.Size) * 8 / float64(f.FCT())
	// The paper observes ~1 Gbps; anything under 4 demonstrates the
	// phenomenon (one idle 10G path is available throughout).
	if gbps > 4 {
		t.Fatalf("sprayed flow reached %.1f Gbps; congestion mismatch did not manifest", gbps)
	}
}

// Example 3 (Fig 3): capacity-proportional spraying over heterogeneous
// paths still loses throughput to the shared congestion window.
func TestPhenomenonMismatchWithCapacityWeights(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 11e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFabricLink(0, 1, 1e9)
	nw.SetFabricLink(1, 1, 1e9)
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true}
	})
	f := tr.StartFlow(0, 2, 50_000_000)
	eng.Run(2 * sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	gbps := float64(f.Size) * 8 / float64(f.FCT())
	// 11 Gbps is available; the paper measures ~5. Assert well below 8.
	if gbps > 8 {
		t.Fatalf("weighted spray reached %.1f Gbps; mismatch did not manifest", gbps)
	}
}

// Example 4 (Fig 4): a flow with pauses exceeding the flowlet timeout
// flip-flops between spines under CONGA's aged state.
func TestPhenomenonCongaHiddenTerminalFlipFlop(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 3, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb.InstallConga(nw, rng, lb.DefaultCongaParams())
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.PassThrough{Scheme: "CONGA"}
	})
	tr.StartFlow(2, 4, 1_000_000_000) // steady flow B

	up0, up1 := nw.Leaves[0].Uplink(0), nw.Leaves[0].Uplink(1)
	var paths []int
	flips := 0
	bursts := 0
	var burst func()
	burst = func() {
		b0, b1 := up0.TxBytes, up1.TxBytes
		tr.StartFlow(0, 5, 8_000_000)
		eng.Schedule(12*sim.Millisecond, func() {
			p := 0
			if up1.TxBytes-b1 > up0.TxBytes-b0 {
				p = 1
			}
			if n := len(paths); n > 0 && paths[n-1] != p {
				flips++
			}
			paths = append(paths, p)
		})
		bursts++
		if bursts < 12 {
			eng.Schedule(13*sim.Millisecond, burst)
		}
	}
	burst()
	eng.Run(200 * sim.Millisecond)
	if flips < 4 {
		t.Fatalf("only %d flips in %v; the stale-state flip-flop did not reproduce", flips, paths)
	}
}

// Example 1 (Fig 1): after the small flows drain, flowlet-based CONGA
// cannot move either colliding large flow to the idle path; Hermes (and
// ideal rerouting) finish the large flows faster.
func TestPhenomenonFlowletPassivity(t *testing.T) {
	run := func(scheme Scheme) float64 {
		// 2x2 fabric: arrival order places smalls and larges; measure the
		// large bucket's mean FCT.
		res := mustRun(t, Config{
			Topology: Topology{
				Leaves: 2, Spines: 2, HostsPerLeaf: 4,
				HostRateBps: 10e9, FabricRateBps: 10e9,
				HostDelayNs: 2000, FabricDelayNs: 2000,
			},
			Scheme: scheme, Workload: "data-mining",
			Load: 0.7, Flows: 150, Seed: 21,
		})
		return res.FCT.Large.MeanMs()
	}
	conga := run(SchemeCONGA)
	hermesMs := run(SchemeHermes)
	// On the steady data-mining workload Hermes' timely rerouting must not
	// lose to flowlet passivity by any meaningful margin.
	if hermesMs > conga*1.3 {
		t.Fatalf("Hermes large flows %.2f ms vs CONGA %.2f ms; timely rerouting regressed", hermesMs, conga)
	}
}

// REPS' defining phenomenon: the recycled-entropy cache is a self-steering
// spray. A blackholed spine stops returning ACKs, so its entropies stop
// re-entering the cache (and ECN/retransmit/RTO actively evict them); within
// an RTT-scale window the recycled spray distribution abandons the dead spine
// with no path-state machine and no probes.
func TestPhenomenonRepsRecyclesAwayFromBlackhole(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	byHost := map[int]*lb.Reps{}
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		r := lb.NewReps(nw, 0)
		byHost[h.ID] = r
		return r
	})
	sender := byHost[0]
	tr.StartFlow(0, 2, 1_000_000_000) // persistent; outlives the test window

	// Healthy warmup: both spines must be recycling.
	eng.Run(10 * sim.Millisecond)
	pre, _ := sender.SprayCounts()
	for p, n := range pre {
		if n == 0 {
			t.Fatalf("path %d recycled nothing during healthy warmup", p)
		}
	}

	// Spine 0 dies silently: links stay up, routing unchanged, no signal
	// except the missing ACKs.
	nw.Spines[0].AddDropFn(func(*net.Packet) bool { return true })

	// Settle for a few RTTs — long enough for in-flight ACKs from the dead
	// spine to drain and the ~32-entry cache to turn over.
	rtt := nw.ApproxBaseRTT()
	eng.Run(eng.Now() + 5*rtt)
	start, _ := sender.SprayCounts()
	eng.Run(eng.Now() + 10*sim.Millisecond)
	end, _ := sender.SprayCounts()

	var dead, total uint64
	for p := range end {
		d := end[p] - start[p]
		total += d
		if nw.PathSpine(p) == 0 {
			dead += d
		}
	}
	if total == 0 {
		t.Fatal("no recycled sprays in the post-onset window; flow stalled")
	}
	if share := float64(dead) / float64(total); share > 0.01 {
		t.Fatalf("dead spine still drew %.2f%% of recycled sprays (%d/%d) after onset; cache did not self-steer",
			share*100, dead, total)
	}
}

// RepFlow's defining phenomenon: under a silently random-dropping spine, a
// short flow's clone on an independently hashed path rescues the tail —
// short-flow p99 beats single-path ECMP — while the redundancy bill is
// bounded (each loser sent at most one short flow's worth of bytes, and
// flows at or above the threshold are never replicated).
func TestPhenomenonRepFlowRescuesShortFlowTail(t *testing.T) {
	run := func(scheme Scheme) *Result {
		return mustRun(t, Config{
			Topology: Topology{
				Leaves: 2, Spines: 2, HostsPerLeaf: 4,
				HostRateBps: 10e9, FabricRateBps: 10e9,
				HostDelayNs: 2000, FabricDelayNs: 2000,
			},
			Scheme: scheme, Workload: "web-search",
			Load: 0.3, Flows: flowCount(300, 120), Seed: 7,
			Failure: FailureSpec{Kind: FailureRandomDrop, Spine: 0, DropRate: 0.04},
		})
	}
	ecmp := run(SchemeECMP)
	rep := run(SchemeRepFlow)

	if rep.ReplicatedFlows == 0 || rep.ReplicaWins == 0 {
		t.Fatalf("replication idle: %d replicated, %d replica wins",
			rep.ReplicatedFlows, rep.ReplicaWins)
	}
	// Tail rescue: losing the race against a drop-free clone must beat
	// serving an RTO on the only path.
	if rep.FCT.Small.P99 >= ecmp.FCT.Small.P99 {
		t.Fatalf("short-flow p99: repflow %.3f ms !< ecmp %.3f ms; replication did not rescue the tail",
			rep.FCT.Small.P99Ms(), ecmp.FCT.Small.P99Ms())
	}
	// Bounded overhead: every cancelled loser was a short flow, so the
	// redundant bytes cannot exceed one threshold's worth per replicated
	// flow (<= 2x goodput on short flows, zero on everything else).
	if rep.RedundantBytes >= rep.ReplicatedFlows*transport.DefaultRepFlowThreshold {
		t.Fatalf("redundant bytes %d >= %d replicated flows x %d threshold; overhead not confined to short flows",
			rep.RedundantBytes, rep.ReplicatedFlows, transport.DefaultRepFlowThreshold)
	}
}
