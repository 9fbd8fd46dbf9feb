// Package pinned holds the repo's pinned microbenchmark bodies: the hot-path
// measurements whose trajectory the perf ledger (BENCH_perf.json) tracks
// across PRs. The bodies live here — in a normal (non-test) package — so the
// same code runs under `go test -bench` via thin wrappers in the owning
// packages AND programmatically from `hermes-bench -perf` through
// testing.Benchmark. A pinned benchmark's name must stay stable forever:
// it is the join key of the ledger trajectory.
package pinned

import (
	"math/rand"
	"strconv"
	"testing"

	hnet "github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Benchmark is one pinned microbenchmark.
type Benchmark struct {
	Name string // ledger key, e.g. "net.BenchmarkPacketForward"
	Fn   func(*testing.B)
}

// Benchmarks returns the pinned set in canonical order.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "net.BenchmarkPacketForward", Fn: PacketForward},
		{Name: "net.BenchmarkPacketForwardPipelined", Fn: PacketForwardPipelined},
		{Name: "sim.BenchmarkEngineScheduleRun", Fn: EngineScheduleRun},
		{Name: "sim.BenchmarkEngineFixedDelays", Fn: EngineFixedDelays},
		{Name: "sim.BenchmarkEngineRearm", Fn: EngineRearm},
		{Name: "timeseries.BenchmarkFlightSnap", Fn: FlightSnap},
	}
}

// EngineScheduleRun measures raw engine scheduling + firing throughput with
// random delays over a bounded queue.
func EngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Time(r.Intn(1000)), func() {})
		if e.Pending() > 10000 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// EngineFixedDelays measures the engine on a queue of cancelled timers.
// Packets hop with a few fixed delays (the serialization times of 1500 B and
// 64 B at 10 Gbps and the 2 µs link propagation delay), and every hop
// cancels its flow's 10 ms retransmission timer and schedules a new one, so
// about 170k mostly-cancelled timers stay pending. The simulator cancels
// timers this way for probe timeouts and finished flows; it moves
// retransmission timers with Reschedule instead, which EngineRearm
// measures. One op is one packet hop.
func EngineFixedDelays(b *testing.B) {
	s := newFixedDelays()
	// Warm up past one timeout so the timer backlog is at its steady size.
	s.run(2 * fixedDelayOpsPerRTO)
	b.ReportAllocs()
	b.ResetTimer()
	s.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(s.e.Pending()), "pending")
}

// fixedDelaySet cycles per hop: serialization, propagation, ACK
// serialization, propagation. The mean hop takes 1313 ns, so 22 packets in
// flight advance virtual time 59.7 ns per op and a 10 ms timer outlives
// about 167k ops.
var fixedDelaySet = [...]sim.Time{1200, 2000, 51, 2000}

const (
	fixedDelayFlows     = 1024
	fixedDelayInFlight  = 22
	fixedDelayRTO       = 10 * sim.Millisecond
	fixedDelayOpsPerRTO = 167_500
)

type fixedDelays struct {
	e    *sim.Engine
	rto  [fixedDelayFlows]*sim.Event // each flow's armed timer
	pkts [fixedDelayInFlight]fixedDelayPacket
	left int // ops until the engine stops
}

type fixedDelayPacket struct{ flow, hop int }

func newFixedDelays() *fixedDelays { return newHopLoop(fixedDelayHop) }

// newHopLoop starts the packets, each hopping with hop.
func newHopLoop(hop func(a1, a2 any)) *fixedDelays {
	s := &fixedDelays{e: sim.NewEngine()}
	for i := range s.pkts {
		s.pkts[i].flow = i
		s.e.ScheduleCallKind(fixedDelaySet[i%len(fixedDelaySet)], sim.KindPortTx, hop, s, &s.pkts[i])
	}
	return s
}

// run fires ops packet hops (ops >= 1).
func (s *fixedDelays) run(ops int) {
	s.left = ops
	s.e.RunAll()
}

func fixedDelayHop(a1, a2 any) {
	s, p := a1.(*fixedDelays), a2.(*fixedDelayPacket)
	timer := &s.rto[p.flow]
	if *timer != nil {
		(*timer).Cancel()
	}
	*timer = s.e.ScheduleCallKind(fixedDelayRTO, sim.KindRTO, fixedDelayTimeout, timer, nil)
	if s.left == 0 {
		return // draining: the packet leaves, its timer stays armed
	}
	p.hop++
	p.flow = (p.flow + fixedDelayInFlight) % fixedDelayFlows
	s.e.ScheduleCallKind(fixedDelaySet[p.hop%len(fixedDelaySet)], sim.KindPropagate, fixedDelayHop, s, p)
	if s.left--; s.left == 0 {
		s.e.Stop()
	}
}

// fixedDelayTimeout clears the flow's handle. Every flow is re-armed every
// ~61 µs, so in steady state no timer fires.
func fixedDelayTimeout(a1, _ any) { *a1.(**sim.Event) = nil }

// EngineRearm is EngineFixedDelays' hop loop with each flow's timer moved by
// Reschedule, as the transport re-arms its retransmission timers. A timer
// keeps its queue entry while it moves, so about two entries per flow stay
// pending, not one per re-arm: the live timer, and once its first slot has
// come due and sent it to the heap, the cancelled heap entry its next move
// leaves there. One op is one packet hop.
func EngineRearm(b *testing.B) {
	s := newHopLoop(rearmHop)
	s.run(2 * fixedDelayOpsPerRTO)
	b.ReportAllocs()
	b.ResetTimer()
	s.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(s.e.Pending()), "pending")
}

// rearmHop is fixedDelayHop with the timer moved in place. fixedDelayHop
// keeps its own copy of the forwarding tail, so EngineFixedDelays still
// measures the code its ledger entries measured.
func rearmHop(a1, a2 any) {
	s, p := a1.(*fixedDelays), a2.(*fixedDelayPacket)
	timer := &s.rto[p.flow]
	if *timer != nil {
		*timer = s.e.Reschedule(*timer, fixedDelayRTO)
	} else {
		*timer = s.e.ScheduleCallKind(fixedDelayRTO, sim.KindRTO, fixedDelayTimeout, timer, nil)
	}
	if s.left == 0 {
		return // draining: the packet leaves, its timer stays armed
	}
	p.hop++
	p.flow = (p.flow + fixedDelayInFlight) % fixedDelayFlows
	s.e.ScheduleCallKind(fixedDelaySet[p.hop%len(fixedDelaySet)], sim.KindPropagate, rearmHop, s, p)
	if s.left--; s.left == 0 {
		s.e.Stop()
	}
}

// benchFabric builds the smallest cross-leaf fabric that exercises the full
// forwarding hot path: host uplink -> leaf -> spine -> leaf -> host, four
// store-and-forward hops with two engine events each.
func benchFabric(b *testing.B) (*sim.Engine, *hnet.Network) {
	b.Helper()
	eng := sim.NewEngine()
	nw, err := hnet.NewLeafSpine(eng, sim.NewRNG(1), hnet.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10_000_000_000, FabricRateBps: 10_000_000_000,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, nw
}

// PacketForward measures the allocation cost of forwarding one full-size
// data packet across the fabric (the simulator's dominant hot path). The
// alloc/op figure is the headline number of the ledger.
func PacketForward(b *testing.B) {
	eng, nw := benchFabric(b)
	delivered := 0
	nw.Hosts[2].Handle(hnet.Data, func(p *hnet.Packet) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &hnet.Packet{Kind: hnet.Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: hnet.MaxPacketBytes, Path: i % 2}
		nw.Hosts[0].Send(pkt)
		eng.RunAll()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d packets", delivered, b.N)
	}
}

// PacketForwardPipelined keeps a window of packets in flight so the ports
// stay busy, amortizing engine bookkeeping the way a loaded run does.
func PacketForwardPipelined(b *testing.B) {
	eng, nw := benchFabric(b)
	delivered := 0
	nw.Hosts[2].Handle(hnet.Data, func(p *hnet.Packet) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	const window = 32
	for i := 0; i < b.N; i++ {
		pkt := &hnet.Packet{Kind: hnet.Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: hnet.MaxPacketBytes, Path: i % 2}
		nw.Hosts[0].Send(pkt)
		if i%window == window-1 {
			eng.RunAll()
		}
	}
	eng.RunAll()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d packets", delivered, b.N)
	}
}

// flightSnapRows is how many rows FlightSnap records before it starts a
// new recorder: about the 1,001 rows of a blackhole-observed run.
const flightSnapRows = 1024

// FlightSnap measures one flight-recorder sample on a recorder shaped like
// the blackhole-observed workload's: 640 per-port series (128 ports of
// five metrics), 32 path-census series and 13 aggregates. Its sealed
// 64-row blocks split as that run's do at seed 1, within a few points:
// 47% all zero (idle ports), 37% float32-exact (queue depths, counts,
// coarse rates), 15% raw fractions and 1% constant (the run's: 48, 33, 18
// and 1). A new recorder starts every flightSnapRows rows, so B/op is what
// a row of a run's recording costs to store. One op is one Snap.
func FlightSnap(b *testing.B) {
	row := 0
	var rec *timeseries.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%flightSnapRows == 0 {
			b.StopTimer()
			rec = newFlightRecorder(&row)
			b.StartTimer()
		}
		row = i % flightSnapRows
		rec.Snap()
	}
}

// newFlightRecorder registers FlightSnap's probes, which read the row
// number through row.
func newFlightRecorder(row *int) *timeseries.Recorder {
	rec := timeseries.NewRecorder(sim.NewEngine(), 0, 0)
	for p := range 128 {
		port := "{port=" + strconv.Itoa(p) + "}"
		busy := p%2 == 0
		rec.Register("net.port.queue_bytes"+port, func() float64 {
			if !busy {
				return 0
			}
			return float64((*row*7+p*13)%11) * 1500
		})
		rec.Register("net.port.util"+port, func() float64 {
			if !busy {
				return 0
			}
			return float64((*row+p)%100) / 97
		})
		rec.Register("net.port.ecn_marks"+port, func() float64 {
			if !busy {
				return 0
			}
			return float64(*row % 5)
		})
		rec.Register("net.port.drops"+port, func() float64 {
			if p%32 != 0 || *row < 200 || *row >= 400 {
				return 0
			}
			return float64(*row%3 + 1)
		})
		rec.Register("net.port.tx_gbps"+port, func() float64 {
			switch {
			case !busy:
				return float64(*row%4) * 0.25 // ACKs only
			case p%4 == 0:
				return float64((*row*p)%997) * 0.125
			}
			return float64((*row*p)%997) * 0.012
		})
	}
	for j := range 32 {
		rec.Register("hermes.paths_good{pair="+strconv.Itoa(j)+"}", func() float64 {
			return float64((*row/50 + j) % 9)
		})
	}
	for j := range 13 {
		rec.Register("transport.aggregate"+strconv.Itoa(j), func() float64 {
			if j < 5 {
				return float64(j) + 0.1 // configured rates
			}
			return float64(*row)/7 + float64(j)
		})
	}
	return rec
}
