// Congestion-mismatch micro-benchmarks (§2.2.2 of the paper):
//
//   - Example 2 (Fig 2): a DCTCP flow sprayed Presto-style over an
//     asymmetric fabric shares one path with a 9 Gbps UDP flow; the sprayed
//     flow's throughput collapses and the healthy path's queue oscillates.
//   - Example 3 (Fig 3): spraying proportionally to capacity over a 1 Gbps
//     and a 10 Gbps path still loses throughput, because one congestion
//     window straddles both paths.
//   - Example 4 (Fig 4): the CONGA hidden-terminal: a paused flow flips
//     between spines on stale congestion state, spiking the queue.
//
// These examples drive the internal packages directly (they are micro
// set-ups, not workload experiments).
package main

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

func main() {
	example2()
	example3()
	example4()
}

// example2 reproduces Fig 2: flow A (DCTCP, leaf1->leaf2) is sprayed over
// both spines while flow B (UDP 9 Gbps, leaf0->leaf2) occupies spine0, and
// leaf0's link to spine1 is cut.
func example2() {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 3, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		panic(err)
	}
	nw.SetFabricLink(0, 1, 0) // broken leaf0 <-> spine1

	const flowSize = 50_000_000
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*"} // equal weights, as in Fig 2
	})

	// Flow B: UDP 9 Gbps from leaf0 to leaf2, forced through spine0.
	udp := &transport.UDPSender{
		Eng: eng, Host: nw.Hosts[0], Dst: 4, RateBps: 9e9, Paths: []int{0},
	}
	udp.Start()

	// Queue sampling at spine0's port toward leaf2 (the Fig 2b signal).
	q := metrics.QueueRecorder(eng, nw.Spines[0].Downlink(2), 100*sim.Microsecond)

	// Flow A: DCTCP from leaf1 to leaf2, sprayed over both spines.
	f := tr.StartFlow(2, 5, flowSize)
	eng.Run(2 * sim.Second)

	report("Example 2 (Fig 2): Presto under asymmetry + UDP cross traffic", f, eng, q)
	fmt.Printf("  expected: throughput far below the ~1 Gbps spine0 residual + 10 Gbps spine1 sum;\n")
	fmt.Printf("  the shared window is throttled by spine0's ECN while spine1 sits idle.\n\n")
}

// example3 reproduces Fig 3: capacity-proportional spraying over a 1 Gbps
// and a 10 Gbps path still underutilizes both.
func example3() {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 11e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		panic(err)
	}
	nw.SetFabricLink(0, 1, 1e9) // heterogenous: spine1 path is 1 Gbps
	nw.SetFabricLink(1, 1, 1e9)

	const flowSize = 50_000_000
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true} // 10:1
	})
	q := metrics.QueueRecorder(eng, nw.Spines[1].Downlink(1), 100*sim.Microsecond)

	f := tr.StartFlow(0, 2, flowSize)
	eng.Run(2 * sim.Second)

	report("Example 3 (Fig 3): capacity-weighted spraying over 10G+1G paths", f, eng, q)
	fmt.Printf("  expected: well under the 11 Gbps aggregate; marks on the 1 Gbps path\n")
	fmt.Printf("  cut the window that also drives the 10 Gbps path.\n\n")
}

// example4 reproduces Fig 4: flow A pauses 3 ms every 10 ms (forcing
// flowlet gaps); CONGA flips it between spines because the alternative
// path's stale state always reads zero, spiking the queue under flow B.
func example4() {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 3, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		panic(err)
	}
	lb.InstallConga(nw, rng, lb.DefaultCongaParams())
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return &lb.PassThrough{Scheme: "CONGA"}
	})

	// Flow B: steady DCTCP from leaf1 to leaf2.
	fb := tr.StartFlow(2, 4, 1_000_000_000)

	// Flow A: DCTCP from leaf0 to leaf2, paused 3 ms every 10 ms, emulated
	// as repeated 8 MB bursts. Each pause exceeds the flowlet timeout, so
	// CONGA re-picks the path per burst. We attribute each burst to the
	// spine whose leaf0 uplink carried its bytes.
	up0, up1 := nw.Leaves[0].Uplink(0), nw.Leaves[0].Uplink(1)
	var burstPaths []int
	pathChanges := 0
	var burst func()
	bursts := 0
	burst = func() {
		b0, b1 := up0.TxBytes, up1.TxBytes
		tr.StartFlow(0, 5, 8_000_000)
		eng.Schedule(12*sim.Millisecond, func() {
			d0, d1 := up0.TxBytes-b0, up1.TxBytes-b1
			p := 0
			if d1 > d0 {
				p = 1
			}
			if n := len(burstPaths); n > 0 && burstPaths[n-1] != p {
				pathChanges++
			}
			burstPaths = append(burstPaths, p)
		})
		bursts++
		if bursts < 12 {
			eng.Schedule(13*sim.Millisecond, burst) // ~10ms send + 3ms pause
		}
	}
	burst()

	q0 := metrics.QueueRecorder(eng, nw.Spines[0].Downlink(2), 100*sim.Microsecond)
	q1 := metrics.QueueRecorder(eng, nw.Spines[1].Downlink(2), 100*sim.Microsecond)

	eng.Run(200 * sim.Millisecond)
	_ = fb
	fmt.Println("Example 4 (Fig 4): CONGA hidden terminal")
	fmt.Printf("  flow A burst->spine assignment: %v\n", burstPaths)
	fmt.Printf("  flow A spine changes across bursts: %d (flip-flopping on stale state)\n", pathChanges)
	fmt.Printf("  spine0->leaf2 queue: %s\n", metrics.QueueStats(q0))
	fmt.Printf("  spine1->leaf2 queue: %s\n", metrics.QueueStats(q1))
	fmt.Printf("  expected: repeated queue spikes when flow A lands on flow B's spine.\n")
}

func report(title string, f *transport.Flow, eng *sim.Engine, q *timeseries.Recorder) {
	dur := f.EndAt
	if !f.Done {
		dur = eng.Now()
	}
	gbps := float64(f.AckedBytes()) * 8 / float64(dur-f.StartAt)
	fmt.Println(title)
	fmt.Printf("  flow A goodput: %.2f Gbps (acked %d MB in %d ms)\n",
		gbps, f.AckedBytes()/1e6, (dur-f.StartAt)/1e6)
	fmt.Printf("  bottleneck queue: %s\n", metrics.QueueStats(q))
}
