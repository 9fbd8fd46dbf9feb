package lb

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

func TestEdgeFlowletStickyAndRandom(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	e := &EdgeFlowlet{Net: nw, Rng: sim.NewRNG(2), Timeout: 150 * sim.Microsecond}
	f := mkFlow(1, 0, 2, nw)
	p1 := e.SelectPath(f)
	for i := 0; i < 10; i++ {
		eng.Run(eng.Now() + 50*sim.Microsecond)
		if e.SelectPath(f) != p1 {
			t.Fatal("path changed within a flowlet")
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		eng.Run(eng.Now() + 200*sim.Microsecond)
		seen[e.SelectPath(f)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random flowlet re-picks covered only %d paths", len(seen))
	}
}

func TestEdgeFlowletCleansUpOnDone(t *testing.T) {
	_, nw := testNet(t, 2, 2, 2)
	e := &EdgeFlowlet{Net: nw, Rng: sim.NewRNG(2), Timeout: 150 * sim.Microsecond}
	f := mkFlow(1, 0, 2, nw)
	e.SelectPath(f)
	if len(e.flowlets.m) != 1 {
		t.Fatal("flowlet entry not created")
	}
	e.OnFlowDone(f)
	if len(e.flowlets.m) != 0 {
		t.Fatal("flowlet entry leaked after flow completion")
	}
}

func TestHulaPrefersLeastUtilizedPath(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	hulas := InstallHula(nw, sim.NewRNG(3), DefaultHulaParams())
	h := hulas[0]
	// Saturate uplink 0's DRE with line-rate traffic for a while.
	up := nw.Leaves[0].Uplink(0)
	for i := 0; i < 2000; i++ {
		up.Enqueue(&net.Packet{Kind: net.Data, Wire: 1500, Src: 0, Dst: 2})
		eng.Run(eng.Now() + 1200)
	}
	// Let a refresh happen with the DRE hot.
	eng.Run(eng.Now() + DefaultHulaParams().ProbeInterval + sim.Microsecond)
	pkt := &net.Packet{Flow: 42, Src: 0, Dst: 2}
	if got := h.SelectUplink(pkt, 1); got != 1 {
		t.Fatalf("HULA picked busy uplink %d", got)
	}
}

func TestHulaFlowletSticky(t *testing.T) {
	eng, nw := testNet(t, 2, 4, 2)
	hulas := InstallHula(nw, sim.NewRNG(3), DefaultHulaParams())
	h := hulas[0]
	pkt := &net.Packet{Flow: 7, Src: 0, Dst: 2}
	p1 := h.SelectUplink(pkt, 1)
	for i := 0; i < 10; i++ {
		eng.Run(eng.Now() + 30*sim.Microsecond)
		if h.SelectUplink(pkt, 1) != p1 {
			t.Fatal("HULA changed path within a flowlet")
		}
	}
}

func TestHulaTablesRefreshOverTime(t *testing.T) {
	eng, nw := testNet(t, 2, 2, 2)
	hulas := InstallHula(nw, sim.NewRNG(3), DefaultHulaParams())
	h := hulas[0]
	if h.bestPath[1] < 0 {
		t.Fatal("initial refresh did not populate the table")
	}
	// Load uplink for whichever path is currently best; after refreshes the
	// best path must flip away from it.
	old := h.bestPath[1]
	up := nw.Leaves[0].Uplink(old)
	for i := 0; i < 3000; i++ {
		up.Enqueue(&net.Packet{Kind: net.Data, Wire: 1500, Src: 0, Dst: 2})
		eng.Run(eng.Now() + 1200)
	}
	eng.Run(eng.Now() + 2*DefaultHulaParams().ProbeInterval)
	if h.bestPath[1] == old {
		t.Fatal("best path did not move off the loaded uplink")
	}
}

func TestWCMPWeightsByCapacity(t *testing.T) {
	_, nw := testNet(t, 2, 2, 2)
	nw.SetFabricLink(0, 1, 2e9)
	nw.SetFabricLink(1, 1, 2e9)
	w := &WCMP{Net: nw}
	counts := [2]int{}
	for id := uint64(0); id < 6000; id++ {
		counts[w.SelectPath(mkFlow(id, 0, 2, nw))]++
	}
	// 10:2 capacity split => ~5/6 on path 0.
	frac := float64(counts[0]) / 6000
	if frac < 0.78 || frac > 0.88 {
		t.Fatalf("10G path got %.2f of flows, want ~0.83", frac)
	}
	// Per-flow determinism.
	for id := uint64(0); id < 50; id++ {
		if w.SelectPath(mkFlow(id, 0, 2, nw)) != w.SelectPath(mkFlow(id, 0, 2, nw)) {
			t.Fatal("WCMP not deterministic per flow id")
		}
	}
}
