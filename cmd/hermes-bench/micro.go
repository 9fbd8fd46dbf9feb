package main

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

func init() {
	register("fig1", "flowlet switching cannot split stable flows (CONGA vs ideal rerouting)", fig1)
	register("fig2", "congestion mismatch: Presto spraying under asymmetry + UDP cross traffic", fig2)
	register("fig3", "congestion mismatch persists with capacity-proportional weights", fig3)
	register("fig4", "CONGA hidden terminal: flip-flopping on stale state", fig4)
}

func microFabric(leaves, spines, hpl int, hostBps, fabricBps int64) (*sim.Engine, *net.Network) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hpl,
		HostRateBps: hostBps, FabricRateBps: fabricBps,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		panic(err)
	}
	return eng, nw
}

// pinThen pins specific flows to specific paths until a deadline and then
// delegates to an inner balancer, letting the micro-benchmarks reproduce the
// paper's constructed placements exactly.
type pinThen struct {
	inner transport.Balancer
	eng   *sim.Engine
	until sim.Time
	pin   map[uint64]int
}

func (p *pinThen) Name() string { return p.inner.Name() }
func (p *pinThen) SelectPath(f *transport.Flow) int {
	if p.eng.Now() < p.until {
		if path, ok := p.pin[f.ID]; ok {
			return path
		}
	}
	return p.inner.SelectPath(f)
}
func (p *pinThen) OnSent(f *transport.Flow, path, bytes int)     { p.inner.OnSent(f, path, bytes) }
func (p *pinThen) OnAck(f *transport.Flow, e transport.AckEvent) { p.inner.OnAck(f, e) }
func (p *pinThen) OnRetransmit(f *transport.Flow, path int)      { p.inner.OnRetransmit(f, path) }
func (p *pinThen) OnTimeout(f *transport.Flow, path int)         { p.inner.OnTimeout(f, path) }
func (p *pinThen) OnFlowStart(f *transport.Flow)                 { p.inner.OnFlowStart(f) }
func (p *pinThen) OnFlowDone(f *transport.Flow)                  { p.inner.OnFlowDone(f) }

// fig1 reproduces Example 1: small flows A, B on path 0 and large flows C, D
// colliding on path 1. Once A and B finish, path 0 sits idle. A scheme that
// can only reroute on flowlet gaps never moves C or D (steady DCTCP produces
// no gaps); ideal rerouting almost halves the large flows' completion times.
func fig1(o options) {
	const (
		smallSize = 12_500_000
		largeSize = 62_500_000
		pinFor    = 5 * sim.Millisecond
	)
	type outcome struct {
		name           string
		largeA, largeB float64 // ms
	}
	run := func(name string, mk func(eng *sim.Engine, nw *net.Network) func(h *net.Host) transport.Balancer) outcome {
		eng, nw := microFabric(2, 2, 4, 10e9, 10e9)
		tr := transport.New(nw, transport.DefaultOptions(), mk(eng, nw))
		tr.StartFlow(0, 4, smallSize) // small A
		tr.StartFlow(1, 5, smallSize) // small B
		c := tr.StartFlow(2, 6, largeSize)
		d := tr.StartFlow(3, 7, largeSize)
		eng.Run(2 * sim.Second)
		return outcome{name, float64(c.FCT()) / 1e6, float64(d.FCT()) / 1e6}
	}

	// CONGA: pinned placement for the first 5 ms, then flowlet switching.
	conga := run("CONGA (flowlets)", func(eng *sim.Engine, nw *net.Network) func(h *net.Host) transport.Balancer {
		lb.InstallConga(nw, nw.Rng, lb.DefaultCongaParams())
		return func(h *net.Host) transport.Balancer {
			return &pinThen{
				inner: &lb.PassThrough{Scheme: "CONGA"},
				eng:   eng, until: pinFor,
				pin: map[uint64]int{1: 0, 2: 0, 3: 1, 4: 1},
			}
		}
	})

	// Hermes: same placement, then timely rerouting with relaxed R so the
	// reroute is not blocked by the two larges' high share (the paper's
	// large fabrics leave colliding larges well under the R gate).
	hermesOut := run("Hermes (timely)", func(eng *sim.Engine, nw *net.Network) func(h *net.Host) transport.Balancer {
		p := core.DefaultParams(nw)
		p.ProbeInterval = 100 * sim.Microsecond
		p.RBps = 0.6 * float64(nw.Cfg.HostRateBps)
		mons := []*core.Monitor{core.NewMonitor(nw, 0, p), core.NewMonitor(nw, 1, p)}
		core.InstallProbeResponders(nw)
		agents := []*net.Host{nw.Hosts[0], nw.Hosts[4]}
		core.NewProber(mons[0], nw.Rng, agents)
		core.NewProber(mons[1], nw.Rng, agents)
		return func(h *net.Host) transport.Balancer {
			return &pinThen{
				inner: core.New(mons[h.Leaf], nw.Rng, h.ID),
				eng:   eng, until: pinFor,
				pin: map[uint64]int{1: 0, 2: 0, 3: 1, 4: 1},
			}
		}
	})

	// Ideal: flow D is moved to path 0 at the moment the smalls are done
	// (approximated by a fixed 22 ms switch point, the smalls' completion).
	ideal := run("ideal rerouting", func(eng *sim.Engine, nw *net.Network) func(h *net.Host) transport.Balancer {
		return func(h *net.Host) transport.Balancer {
			pin := map[uint64]int{1: 0, 2: 0, 3: 1, 4: 1}
			if h.ID == 3 {
				// After the smalls complete, D's pin flips to path 0.
				return &switchAt{eng: eng, at: 23 * sim.Millisecond, before: 1, after: 0}
			}
			return &pinThen{inner: &lb.ECMP{Net: nw}, eng: eng, until: 1 << 62, pin: pin}
		}
	})

	fmt.Printf("%-20s %14s %14s\n", "scheme", "large C (ms)", "large D (ms)")
	for _, oc := range []outcome{conga, hermesOut, ideal} {
		fmt.Printf("%-20s %14.1f %14.1f\n", oc.name, oc.largeA, oc.largeB)
	}
	fmt.Println("expected shape: CONGA leaves both larges sharing one path (no flowlet")
	fmt.Println("gaps); ideal rerouting nearly halves one large's FCT; Hermes approaches it.")
}

// switchAt pins a flow to one path before a deadline and another after.
type switchAt struct {
	transport.BaseBalancer
	eng           *sim.Engine
	at            sim.Time
	before, after int
}

func (s *switchAt) Name() string { return "ideal" }
func (s *switchAt) SelectPath(*transport.Flow) int {
	if s.eng.Now() < s.at {
		return s.before
	}
	return s.after
}

// fig2 reproduces Example 2: equal-weight spraying over an asymmetric fabric
// with a 9 Gbps UDP flow pinned to the only shared path.
func fig2(o options) {
	eng, nw := microFabric(3, 2, 2, 10e9, 10e9)
	nw.SetFabricLink(0, 1, 0) // broken leaf0-spine1 link
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*"}
	})
	udp := &transport.UDPSender{Eng: eng, Host: nw.Hosts[0], Dst: 4, RateBps: 9e9, Paths: []int{0}}
	udp.Start()
	q := metrics.QueueRecorder(eng, nw.Spines[0].Downlink(2), 100*sim.Microsecond)
	f := tr.StartFlow(2, 5, 50_000_000)
	eng.Run(2 * sim.Second)
	gbps := float64(f.AckedBytes()) * 8 / float64(f.FCT())
	fmt.Printf("flow A (sprayed DCTCP) goodput: %.2f Gbps — available: ~1 (shared) + 10 (idle)\n", gbps)
	fmt.Printf("spine0->leaf2 queue: %s (oscillation)\n", metrics.QueueStats(q))
	fmt.Println("expected shape: goodput collapses toward ~1-2 Gbps; queue oscillates.")
}

// fig3 reproduces Example 3: 10:1 capacity-weighted spraying over a 10 Gbps
// and a 1 Gbps path still underutilizes the aggregate.
func fig3(o options) {
	eng, nw := microFabric(2, 2, 2, 11e9, 10e9)
	nw.SetFabricLink(0, 1, 1e9)
	nw.SetFabricLink(1, 1, 1e9)
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true}
	})
	q := metrics.QueueRecorder(eng, nw.Spines[1].Downlink(1), 100*sim.Microsecond)
	f := tr.StartFlow(0, 2, 50_000_000)
	eng.Run(2 * sim.Second)
	gbps := float64(f.AckedBytes()) * 8 / float64(f.FCT())
	fmt.Printf("flow A goodput: %.2f Gbps of an 11 Gbps aggregate\n", gbps)
	fmt.Printf("spine1->leaf1 queue: %s\n", metrics.QueueStats(q))
	fmt.Println("expected shape: well under the aggregate (paper observes ~5 of 11 Gbps);")
	fmt.Println("ECN from the 1 Gbps path throttles the window driving the 10 Gbps path.")
}

// fig4 reproduces Example 4: a flow pausing past the flowlet timeout flips
// between spines on stale congestion state, spiking the victim queue.
func fig4(o options) {
	eng, nw := microFabric(3, 2, 2, 10e9, 10e9)
	lb.InstallConga(nw, nw.Rng, lb.DefaultCongaParams())
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.PassThrough{Scheme: "CONGA"}
	})
	tr.StartFlow(2, 4, 1_000_000_000) // steady flow B, leaf1 -> leaf2

	up0, up1 := nw.Leaves[0].Uplink(0), nw.Leaves[0].Uplink(1)
	var burstPaths []int
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
			if n := len(burstPaths); n > 0 && burstPaths[n-1] != p {
				flips++
			}
			burstPaths = append(burstPaths, p)
		})
		bursts++
		if bursts < 12 {
			eng.Schedule(13*sim.Millisecond, burst)
		}
	}
	burst()
	q0 := metrics.QueueRecorder(eng, nw.Spines[0].Downlink(2), 100*sim.Microsecond)
	q1 := metrics.QueueRecorder(eng, nw.Spines[1].Downlink(2), 100*sim.Microsecond)
	eng.Run(200 * sim.Millisecond)
	fmt.Printf("flow A burst->spine assignment: %v (%d flips)\n", burstPaths, flips)
	fmt.Printf("spine0->leaf2 queue: %s\n", metrics.QueueStats(q0))
	fmt.Printf("spine1->leaf2 queue: %s\n", metrics.QueueStats(q1))
	fmt.Println("expected shape: A flips between spines on stale (aged) state, and the")
	fmt.Println("queue spikes whenever it lands on flow B's spine.")
}
