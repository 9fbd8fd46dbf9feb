package net

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
)

func testNet(t *testing.T, leaves, spines, hpl int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := NewLeafSpine(eng, sim.NewRNG(1), Config{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hpl,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Leaves: 1, Spines: 1, HostsPerLeaf: 1, HostRateBps: 1, FabricRateBps: 1},
		{Leaves: 2, Spines: 0, HostsPerLeaf: 1, HostRateBps: 1, FabricRateBps: 1},
		{Leaves: 2, Spines: 1, HostsPerLeaf: 0, HostRateBps: 1, FabricRateBps: 1},
		{Leaves: 2, Spines: 1, HostsPerLeaf: 1, HostRateBps: 0, FabricRateBps: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but is invalid", i)
		}
	}
}

func TestLeafOf(t *testing.T) {
	_, nw := testNet(t, 4, 2, 8)
	if nw.LeafOf(0) != 0 || nw.LeafOf(7) != 0 || nw.LeafOf(8) != 1 || nw.LeafOf(31) != 3 {
		t.Fatal("LeafOf mapping wrong")
	}
}

func deliverTo(nw *Network, dst int) *[]*Packet {
	var got []*Packet
	for k := Kind(0); k < nKinds; k++ {
		k := k
		nw.Hosts[dst].Handle(k, func(p *Packet) { got = append(got, p) })
	}
	return &got
}

func TestInterLeafForwardingHonorsPath(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	got := deliverTo(nw, 2)
	for path := 0; path < 4; path++ {
		nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: path})
	}
	eng.RunAll()
	if len(*got) != 4 {
		t.Fatalf("delivered %d/4", len(*got))
	}
	for s := 0; s < 4; s++ {
		if nw.Spines[s].Downlink(1).TxPackets != 1 {
			t.Fatalf("spine %d carried %d packets, want exactly 1",
				s, nw.Spines[s].Downlink(1).TxPackets)
		}
	}
}

func TestIntraLeafStaysLocal(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	got := deliverTo(nw, 1)
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 1, Wire: 100, Path: PathAny})
	eng.RunAll()
	if len(*got) != 1 {
		t.Fatal("intra-leaf packet not delivered")
	}
	for s := range nw.Spines {
		if nw.Spines[s].Downlink(0).TxPackets != 0 {
			t.Fatal("intra-leaf packet traversed a spine")
		}
	}
}

func TestDefaultECMPHashIsPerFlow(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	got := deliverTo(nw, 2)
	for i := 0; i < 20; i++ {
		nw.Hosts[0].Send(&Packet{Kind: Data, Flow: 77, Src: 0, Dst: 2, Wire: 100, Path: PathAny})
	}
	eng.RunAll()
	if len(*got) != 20 {
		t.Fatalf("delivered %d/20", len(*got))
	}
	first := (*got)[0].Path
	for _, p := range *got {
		if p.Path != first {
			t.Fatal("same flow hashed to different spines")
		}
	}
}

func TestAvailablePathsAfterCut(t *testing.T) {
	_, nw := testNet(t, 2, 4, 2)
	if got := len(nw.AvailablePaths(0, 1)); got != 4 {
		t.Fatalf("paths = %d, want 4", got)
	}
	nw.SetFabricLink(0, 2, 0)
	paths := nw.AvailablePaths(0, 1)
	if len(paths) != 3 {
		t.Fatalf("paths after cut = %d, want 3", len(paths))
	}
	for _, p := range paths {
		if p == 2 {
			t.Fatal("cut path still listed")
		}
	}
	// The reverse direction loses the same spine.
	if len(nw.AvailablePaths(1, 0)) != 3 {
		t.Fatal("reverse path set inconsistent")
	}
}

func TestPathCapacity(t *testing.T) {
	_, nw := testNet(t, 2, 4, 2)
	nw.SetFabricLink(0, 1, 2e9)
	if got := nw.PathCapacityBps(0, 1, 1); got != 2e9 {
		t.Fatalf("bottleneck capacity = %d, want 2e9", got)
	}
	if got := nw.PathCapacityBps(1, 0, 1); got != 2e9 {
		t.Fatal("bottleneck not symmetric")
	}
	if got := nw.PathCapacityBps(0, 1, 0); got != 10e9 {
		t.Fatalf("healthy path capacity = %d", got)
	}
}

func TestBisection(t *testing.T) {
	_, nw := testNet(t, 4, 4, 2)
	// 4 leaves x 4 spines x 10G / 2.
	if got := nw.BisectionBps(); got != 80e9 {
		t.Fatalf("bisection = %d, want 80e9", got)
	}
	nw.SetFabricLink(0, 0, 0)
	if got := nw.BisectionBps(); got != 75e9 {
		t.Fatalf("bisection after cut = %d, want 75e9", got)
	}
}

func TestSpineDropFn(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	got := deliverTo(nw, 2)
	dropped := 0
	nw.Spines[0].AddDropFn(func(p *Packet) bool { dropped++; return true })
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: 0})
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: 1})
	eng.RunAll()
	if dropped != 1 || len(*got) != 1 {
		t.Fatalf("dropped=%d delivered=%d, want 1/1", dropped, len(*got))
	}
}

func TestSwitchBalancerSelectUplink(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	got := deliverTo(nw, 2)
	fixed := &fixedBalancer{path: 3}
	nw.Leaves[0].Balancer = fixed
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: PathAny})
	eng.RunAll()
	if len(*got) != 1 || (*got)[0].Path != 3 {
		t.Fatal("switch balancer choice not honored")
	}
	if fixed.departs != 1 {
		t.Fatal("OnDepart not invoked")
	}
	// Arrivals fire at the destination leaf.
	nw.Leaves[1].Balancer = fixed
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: PathAny})
	eng.RunAll()
	if fixed.arrives != 1 {
		t.Fatalf("OnArrive fired %d times, want 1", fixed.arrives)
	}
}

type fixedBalancer struct {
	path             int
	departs, arrives int
}

func (f *fixedBalancer) SelectUplink(*Packet, int) int { return f.path }
func (f *fixedBalancer) OnDepart(*Packet, int)         { f.departs++ }
func (f *fixedBalancer) OnArrive(*Packet, int)         { f.arrives++ }

func TestApproxBaseRTTPositive(t *testing.T) {
	_, nw := testNet(t, 2, 2, 2)
	rtt := nw.ApproxBaseRTT()
	if rtt <= 0 || rtt > sim.Millisecond {
		t.Fatalf("base RTT estimate %d ns implausible", rtt)
	}
	if nw.OneHopDelay() <= 0 {
		t.Fatal("one-hop delay must be positive")
	}
}

func TestEndToEndBaseRTTMatchesEstimate(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	var rtt sim.Time
	nw.Hosts[2].Handle(Data, func(p *Packet) {
		nw.Hosts[2].Send(&Packet{Kind: Ack, Src: 2, Dst: 0, Wire: AckBytes, Path: p.Path})
	})
	nw.Hosts[0].Handle(Ack, func(p *Packet) { rtt = eng.Now() })
	nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0})
	eng.RunAll()
	est := nw.ApproxBaseRTT()
	if rtt == 0 {
		t.Fatal("no ACK came back")
	}
	diff := rtt - est
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.1*float64(est) {
		t.Fatalf("measured base RTT %d vs estimate %d (>10%% off)", rtt, est)
	}
}

func testCabledNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := NewLeafSpine(eng, sim.NewRNG(1), Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, CablesPerLink: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func TestCablesNPaths(t *testing.T) {
	_, nw := testCabledNet(t)
	if nw.NPaths() != 4 {
		t.Fatalf("NPaths = %d, want 4 (2 spines x 2 cables)", nw.NPaths())
	}
	if len(nw.AvailablePaths(0, 1)) != 4 {
		t.Fatal("available paths != 4")
	}
	if nw.PathSpine(3) != 1 || nw.PathCable(3) != 1 {
		t.Fatal("path decomposition wrong")
	}
	if nw.PathSpine(1) != 0 || nw.PathCable(1) != 1 {
		t.Fatal("path decomposition wrong for path 1")
	}
}

func TestCablesIndependentForwarding(t *testing.T) {
	eng, nw := testCabledNet(t)
	got := deliverTo(nw, 2)
	for p := 0; p < 4; p++ {
		nw.Hosts[0].Send(&Packet{Kind: Data, Src: 0, Dst: 2, Wire: 100, Path: p})
	}
	eng.RunAll()
	if len(*got) != 4 {
		t.Fatalf("delivered %d/4", len(*got))
	}
	// Each path's spine-side downlink carried exactly one packet.
	for p := 0; p < 4; p++ {
		if nw.DownlinkPort(p, 1).TxPackets != 1 {
			t.Fatalf("path %d downlink carried %d packets, want 1", p, nw.DownlinkPort(p, 1).TxPackets)
		}
	}
}

func TestCutCableLeavesSiblingAlive(t *testing.T) {
	_, nw := testCabledNet(t)
	nw.SetCable(1, 1, 1, 0) // unplug one of leaf1-spine1's two cables
	paths := nw.AvailablePaths(0, 1)
	if len(paths) != 3 {
		t.Fatalf("paths after cable cut = %d, want 3", len(paths))
	}
	for _, p := range paths {
		if p == 3 {
			t.Fatal("cut cable still listed")
		}
	}
	// The sibling cable of the same spine remains usable.
	found := false
	for _, p := range paths {
		if nw.PathSpine(p) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("whole spine lost after a single cable cut")
	}
	// Total pair capacity halves; bisection drops to 75%.
	if nw.FabricLinkRate(1, 1) != 1e9 {
		t.Fatalf("pair capacity = %d, want 1e9", nw.FabricLinkRate(1, 1))
	}
	if got := nw.BisectionBps(); got != 3_500_000_000 {
		// 2 leaves x 4 cables x 1G = 8G minus 1G cut = 7G; /2 = 3.5G.
		t.Fatalf("bisection = %d, want 3.5e9", got)
	}
}

// TestLeafAndCableTables: the host->leaf and path->cable tables equal the
// division they replace on a small fabric, the paper's 8x8 and its testbed
// with two cables per link, and a spine forwards every (destination, path)
// pair down the cable it arrived on.
func TestLeafAndCableTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"small", Config{Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000}},
		{"large", Config{Leaves: 8, Spines: 8, HostsPerLeaf: 16,
			HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 2000, FabricDelay: 2000}},
		{"testbed", Config{Leaves: 2, Spines: 2, HostsPerLeaf: 6, CablesPerLink: 2,
			HostRateBps: 1e9, FabricRateBps: 1e9, HostDelay: 5000, FabricDelay: 5000}},
	} {
		eng := sim.NewEngine()
		nw, err := NewLeafSpine(eng, sim.NewRNG(1), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hpl, cables := tc.cfg.HostsPerLeaf, max(tc.cfg.CablesPerLink, 1)
		for h, host := range nw.Hosts {
			if got := nw.LeafOf(h); got != h/hpl || host.Leaf != h/hpl {
				t.Errorf("%s: host %d on leaf %d (Host.Leaf %d), want %d", tc.name, h, got, host.Leaf, h/hpl)
			}
		}
		if nw.NPaths() != tc.cfg.Spines*cables {
			t.Fatalf("%s: %d paths, want %d", tc.name, nw.NPaths(), tc.cfg.Spines*cables)
		}
		for p := 0; p < nw.NPaths(); p++ {
			if nw.PathCable(p) != p%cables || nw.PathSpine(p) != p/cables {
				t.Errorf("%s: path %d is cable %d of spine %d, want %d of %d",
					tc.name, p, nw.PathCable(p), nw.PathSpine(p), p%cables, p/cables)
			}
		}
		for dst := range nw.Hosts {
			leaf := dst / hpl
			src := (leaf + 1) % tc.cfg.Leaves * hpl
			for p := 0; p < nw.NPaths(); p++ {
				want := nw.Spines[p/cables].Downlink(leaf*cables + p%cables)
				before := want.TxPackets
				nw.Spines[p/cables].receive(&Packet{Kind: Data, Src: src, Dst: dst, Wire: 100, Path: p})
				eng.RunAll()
				if want.TxPackets != before+1 {
					t.Errorf("%s: spine %d did not forward host %d's packet on path %d through %s",
						tc.name, p/cables, dst, p, want.Name)
				}
			}
		}
	}
}
