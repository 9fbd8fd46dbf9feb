package transport

import (
	"testing"
	"testing/quick"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Property: under any bounded random loss pattern that eventually stops,
// every flow completes, and the receiver's contiguous byte count equals the
// flow size exactly (no data corruption, duplication-induced overrun, or
// premature completion).
func TestPropertyFlowsCompleteUnderRandomLoss(t *testing.T) {
	f := func(seed int64, lossPct uint8, sizes []uint16) bool {
		loss := float64(lossPct%30) / 100 // 0-29% loss
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		nw, err := net.NewLeafSpine(eng, rng, net.Config{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostRateBps: 10e9, FabricRateBps: 10e9,
			HostDelay: 1000, FabricDelay: 1000,
		})
		if err != nil {
			return false
		}
		// Random drops on both spines until 50 ms, then a clean network.
		for s := range nw.Spines {
			nw.Spines[s].AddDropFn(func(p *net.Packet) bool {
				return eng.Now() < 50*sim.Millisecond && rng.Float64() < loss
			})
		}
		bal := &fixedPathBalancer{}
		tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return bal })
		var flows []*Flow
		for i, sz := range sizes {
			flows = append(flows, tr.StartFlow(i%2, 2+i%2, int64(sz)+1))
		}
		eng.Run(5 * sim.Second)
		for _, fl := range flows {
			if !fl.Done {
				return false
			}
			if fl.AckedBytes() != fl.Size {
				return false
			}
			if fl.FCT() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative ACK progress is monotone and the congestion window
// never drops below one MSS, under arbitrary path flapping by the balancer.
func TestPropertyWindowInvariantsUnderPathFlapping(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		nw, err := net.NewLeafSpine(eng, rng, net.Config{
			Leaves: 2, Spines: 4, HostsPerLeaf: 2,
			HostRateBps: 10e9, FabricRateBps: 10e9,
			HostDelay: 1000, FabricDelay: 1000,
		})
		if err != nil {
			return false
		}
		bal := &flappingBalancer{rng: rng}
		opts := DefaultOptions()
		opts.ReorderTimeout = 300 * sim.Microsecond
		tr := New(nw, opts, func(h *net.Host) Balancer { return bal })
		fl := tr.StartFlow(0, 2, 3_000_000)

		prevAck := int64(0)
		ok := true
		var watch func()
		watch = func() {
			if fl.AckedBytes() < prevAck {
				ok = false
			}
			prevAck = fl.AckedBytes()
			if fl.Cwnd() < net.MSS {
				ok = false
			}
			if !fl.Done {
				eng.Schedule(50*sim.Microsecond, watch)
			}
		}
		watch()
		eng.Run(2 * sim.Second)
		return ok && fl.Done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

type flappingBalancer struct {
	BaseBalancer
	rng *sim.RNG
}

func (b *flappingBalancer) Name() string { return "flap" }
func (b *flappingBalancer) SelectPath(f *Flow) int {
	return b.rng.Intn(4) // new random path for every packet
}

// Property: the transport conserves work — total payload delivered to
// receivers never exceeds total payload sent, and completed flows acked
// exactly their size.
func TestPropertyConservation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sentPayload, deliveredPayload int64
	bal := &fixedPathBalancer{}
	tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return bal })
	// Count wire-level payloads with a spine tap.
	for s := range nw.Spines {
		nw.Spines[s].AddDropFn(func(p *net.Packet) bool {
			if p.Kind == net.Data {
				deliveredPayload += int64(p.Payload) // counted at the core
			}
			return false
		})
	}
	var flows []*Flow
	for i := 0; i < 20; i++ {
		fl := tr.StartFlow(i%4, 4+i%4, int64(10_000*(i+1)))
		flows = append(flows, fl)
		sentPayload += fl.Size
	}
	eng.Run(2 * sim.Second)
	for _, fl := range flows {
		if !fl.Done {
			t.Fatal("flow unfinished on clean fabric")
		}
		if fl.AckedBytes() != fl.Size {
			t.Fatalf("acked %d != size %d", fl.AckedBytes(), fl.Size)
		}
	}
	// Core saw at least every unique payload byte once (retransmissions may
	// add more, never less).
	if deliveredPayload < sentPayload {
		t.Fatalf("core carried %d payload bytes < offered %d", deliveredPayload, sentPayload)
	}
}

func TestMPTCPDeliversExactly(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 4, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	bal := &fixedPathBalancer{}
	tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return bal })
	done := 0
	tr.OnFlowDone = func(*Flow) { done++ }
	tr.Opts.Subflows = 4
	g := tr.StartFlow(0, 2, 5_000_000)
	eng.Run(sim.Second)
	if !g.Done || done != 1 {
		t.Fatalf("group done=%v callbacks=%d", g.Done, done)
	}
	var acked int64
	for _, sf := range g.Members() {
		if !sf.Done {
			t.Fatal("subflow unfinished after group completion")
		}
		acked += sf.AckedBytes()
	}
	if acked != g.Size {
		t.Fatalf("subflows acked %d bytes, logical size %d", acked, g.Size)
	}
	if g.FCT() <= 0 {
		t.Fatal("non-positive group FCT")
	}
}

func TestMPTCPSmallFlowSingleSubflow(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	nw, _ := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	bal := &fixedPathBalancer{}
	tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return bal })
	// A 10 KB flow fits in one chunk: only one subflow should exist.
	tr.Opts.Subflows = 8
	g := tr.StartFlow(0, 2, 10_000)
	if len(g.Members()) != 1 {
		t.Fatalf("%d subflows for a sub-chunk flow, want 1", len(g.Members()))
	}
	eng.Run(sim.Second)
	if !g.Done {
		t.Fatal("small MPTCP flow unfinished")
	}
}

func TestMPTCPFasterThanSingleFlowOnParallelPaths(t *testing.T) {
	// On an otherwise idle 2-path fabric with a 2 Gbps bottleneck per path,
	// 2 subflows on distinct paths should beat a single path flow clearly.
	run := func(k int) sim.Time {
		eng := sim.NewEngine()
		rng := sim.NewRNG(6)
		nw, _ := net.NewLeafSpine(eng, rng, net.Config{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostRateBps: 10e9, FabricRateBps: 2e9,
			HostDelay: 1000, FabricDelay: 1000,
		})
		// Distinct fixed paths per subflow: path = flowID % 2.
		tr := New(nw, DefaultOptions(), func(h *net.Host) Balancer { return &modBalancer{} })
		if k == 0 {
			f := tr.StartFlow(0, 2, 20_000_000)
			eng.Run(2 * sim.Second)
			if !f.Done {
				t.Fatal("single flow unfinished")
			}
			return f.FCT()
		}
		tr.Opts.Subflows = k
		g := tr.StartFlow(0, 2, 20_000_000)
		eng.Run(2 * sim.Second)
		if !g.Done {
			t.Fatal("mptcp unfinished")
		}
		return g.FCT()
	}
	single := run(0)
	multi := run(2)
	if float64(multi) > 0.7*float64(single) {
		t.Fatalf("MPTCP %v not clearly faster than single-path %v", multi, single)
	}
}

type modBalancer struct{ BaseBalancer }

func (modBalancer) Name() string           { return "mod" }
func (modBalancer) SelectPath(f *Flow) int { return int(f.ID % 2) }

func TestTimelySingleFlowReachesHighRate(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = Timely
	eng, _, tr, _ := testFabric(t, 2, opts)
	f := tr.StartFlow(0, 2, 50_000_000)
	eng.Run(2 * sim.Second)
	if !f.Done {
		t.Fatal("TIMELY flow did not finish")
	}
	gbps := float64(f.Size) * 8 / float64(f.FCT())
	if gbps < 4 {
		t.Fatalf("TIMELY goodput %.2f Gbps, want at least 4 on an idle 10G path", gbps)
	}
}

func TestTimelyBacksOffUnderContention(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = Timely
	eng, _, tr, _ := testFabric(t, 1, opts)
	// Two flows share one 10G spine path; both should finish and neither
	// should be starved (rate floor holds).
	f1 := tr.StartFlow(0, 2, 20_000_000)
	f2 := tr.StartFlow(1, 3, 20_000_000)
	eng.Run(3 * sim.Second)
	if !f1.Done || !f2.Done {
		t.Fatal("contending TIMELY flows did not finish")
	}
	a, b := float64(f1.FCT()), float64(f2.FCT())
	if a/b > 3 || b/a > 3 {
		t.Fatalf("grossly unfair TIMELY sharing: %v vs %v", f1.FCT(), f2.FCT())
	}
}
