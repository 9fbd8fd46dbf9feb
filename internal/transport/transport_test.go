package transport

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// fixedPathBalancer pins every flow to one path and records callbacks.
type fixedPathBalancer struct {
	BaseBalancer
	path        int
	acks        int
	eceAcks     int
	retransmits int
	timeouts    int
	rtts        []sim.Time
}

func (b *fixedPathBalancer) Name() string           { return "fixed" }
func (b *fixedPathBalancer) SelectPath(f *Flow) int { return b.path }
func (b *fixedPathBalancer) OnAck(f *Flow, e AckEvent) {
	b.acks++
	if e.ECE {
		b.eceAcks++
	}
	if e.RTT > 0 {
		b.rtts = append(b.rtts, e.RTT)
	}
}
func (b *fixedPathBalancer) OnRetransmit(*Flow, int) { b.retransmits++ }
func (b *fixedPathBalancer) OnTimeout(*Flow, int)    { b.timeouts++ }

func testFabric(t *testing.T, spines int, opts Options) (*sim.Engine, *net.Network, *Transport, *fixedPathBalancer) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: spines, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	bal := &fixedPathBalancer{}
	tr := New(nw, opts, func(h *net.Host) Balancer { return bal })
	return eng, nw, tr, bal
}

func TestSingleFlowCompletes(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 2, DefaultOptions())
	f := tr.StartFlow(0, 2, 1_000_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("1 MB flow did not finish in 1 s of virtual time")
	}
	// 1 MB at 10 Gbps is ~0.8 ms ideal; allow generous slack for slow start.
	if f.FCT() > 5*sim.Millisecond {
		t.Fatalf("FCT = %v ns, unreasonably slow", f.FCT())
	}
	if tr.FinishedCount() != 1 || tr.ActiveCount() != 0 {
		t.Fatal("flow accounting wrong")
	}
}

func TestFCTNearIdealForLargeFlow(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 2, DefaultOptions())
	const size = 100_000_000
	f := tr.StartFlow(0, 2, size)
	eng.Run(2 * sim.Second)
	if !f.Done {
		t.Fatal("flow did not finish")
	}
	// Goodput should reach at least 70% of the 10 Gbps line rate.
	gbps := float64(size) * 8 / float64(f.FCT())
	if gbps < 7 {
		t.Fatalf("goodput %.2f Gbps, want >= 7", gbps)
	}
}

func TestTinyFlowSinglePacket(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 2, DefaultOptions())
	f := tr.StartFlow(0, 2, 100)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("100 B flow did not finish")
	}
}

func TestZeroSizeClamped(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 2, DefaultOptions())
	f := tr.StartFlow(0, 2, 0)
	if f.Size != 1 {
		t.Fatalf("size = %d, want clamped to 1", f.Size)
	}
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("clamped flow did not finish")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 1, DefaultOptions())
	// Two flows from different hosts to the same destination share the
	// single 10 Gbps spine path.
	const size = 20_000_000
	f1 := tr.StartFlow(0, 2, size)
	f2 := tr.StartFlow(1, 3, size)
	eng.Run(2 * sim.Second)
	if !f1.Done || !f2.Done {
		t.Fatal("flows did not finish")
	}
	// Completion times should be within 2x of each other (rough fairness).
	a, b := float64(f1.FCT()), float64(f2.FCT())
	if a/b > 2 || b/a > 2 {
		t.Fatalf("unfair sharing: %v vs %v", f1.FCT(), f2.FCT())
	}
}

func TestDCTCPSeesECNAndBacksOff(t *testing.T) {
	eng, nw, tr, bal := testFabric(t, 1, DefaultOptions())
	// Four flows into one host: its access link is the bottleneck and the
	// queue will mark.
	for src := 0; src < 2; src++ {
		tr.StartFlow(src, 2, 10_000_000)
	}
	f := tr.StartFlow(0, 2, 10_000_000)
	eng.Run(sim.Second)
	if bal.eceAcks == 0 {
		t.Fatal("no ECN-echo ACKs under congestion")
	}
	if f.Alpha() == 0 {
		t.Fatal("DCTCP alpha stayed zero under persistent marking")
	}
	// The fan-in point (the source leaf's single uplink, 20G offered onto
	// 10G) is the first bottleneck and should have marked packets.
	if nw.Leaves[0].Uplink(0).ECNMarks == 0 {
		t.Fatal("bottleneck port never marked")
	}
}

func TestRenoIgnoresECN(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = Reno
	eng, _, tr, bal := testFabric(t, 1, opts)
	for src := 0; src < 2; src++ {
		tr.StartFlow(src, 2, 10_000_000)
	}
	eng.Run(sim.Second)
	if bal.eceAcks != 0 {
		t.Fatal("Reno flows should not be ECT, yet ACKs carried ECE")
	}
}

func TestFastRetransmitOnLoss(t *testing.T) {
	eng, nw, tr, bal := testFabric(t, 2, DefaultOptions())
	// Drop exactly one mid-flow data packet at spine 0.
	dropped := false
	n := 0
	nw.Spines[0].AddDropFn(func(p *net.Packet) bool {
		if p.Kind != net.Data {
			return false
		}
		n++
		if n == 30 && !dropped {
			dropped = true
			return true
		}
		return false
	})
	f := tr.StartFlow(0, 2, 2_000_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not recover from single loss")
	}
	if bal.retransmits == 0 {
		t.Fatal("no fast retransmit for an isolated loss")
	}
	if bal.timeouts != 0 {
		t.Fatalf("isolated loss caused %d RTOs; fast recovery failed", bal.timeouts)
	}
}

func TestRTORecoversFromBlackout(t *testing.T) {
	eng, nw, tr, bal := testFabric(t, 2, DefaultOptions())
	// Drop everything on spine 0 for the first 50 ms.
	nw.Spines[0].AddDropFn(func(p *net.Packet) bool {
		return eng.Now() < 50*sim.Millisecond
	})
	f := tr.StartFlow(0, 2, 500_000)
	eng.Run(2 * sim.Second)
	if !f.Done {
		t.Fatal("flow did not recover after blackout lifted")
	}
	if bal.timeouts == 0 {
		t.Fatal("blackout should have caused RTOs")
	}
	if f.Timeouts() != bal.timeouts {
		t.Fatalf("flow counted %d timeouts, balancer saw %d", f.Timeouts(), bal.timeouts)
	}
}

func TestTimedOutFlagSetOnRTO(t *testing.T) {
	eng, nw, tr, _ := testFabric(t, 2, DefaultOptions())
	nw.Spines[0].AddDropFn(func(p *net.Packet) bool { return true })
	nw.Spines[1].AddDropFn(func(p *net.Packet) bool { return true })
	f := tr.StartFlow(0, 2, 100_000)
	eng.Run(100 * sim.Millisecond)
	if !f.TimedOut {
		t.Fatal("TimedOut flag not set while blackholed")
	}
	if f.Done {
		t.Fatal("flow cannot finish while fully blackholed")
	}
}

func TestRTTSamplesPlausible(t *testing.T) {
	eng, nw, tr, bal := testFabric(t, 2, DefaultOptions())
	tr.StartFlow(0, 2, 500_000)
	eng.Run(sim.Second)
	if len(bal.rtts) == 0 {
		t.Fatal("no RTT samples")
	}
	base := nw.ApproxBaseRTT()
	for _, r := range bal.rtts {
		if r < base/2 {
			t.Fatalf("RTT sample %d below base %d", r, base)
		}
		if r > 100*sim.Millisecond {
			t.Fatalf("RTT sample %d absurdly high", r)
		}
	}
}

func TestPathChangeCounting(t *testing.T) {
	eng, _, tr, bal := testFabric(t, 2, DefaultOptions())
	bal.path = 0
	f := tr.StartFlow(0, 2, 5_000_000)
	eng.Run(sim.Millisecond)
	bal.path = 1
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not finish")
	}
	if f.PathChanges == 0 {
		t.Fatal("path change not counted")
	}
}

func TestSprayWithoutReorderBufferCausesDupacks(t *testing.T) {
	// A spraying balancer without reorder masking must trigger spurious
	// fast retransmits under path-delay skew; with the buffer they are
	// suppressed. Skew comes from a longer propagation delay on spine 1.
	run := func(reorder sim.Time) int {
		eng := sim.NewEngine()
		nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostRateBps: 10e9, FabricRateBps: 10e9,
			HostDelay: 1000, FabricDelay: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Skew: 50 us extra propagation via spine 1, both directions.
		nw.Leaves[0].Uplink(1).SetPropDelay(50 * sim.Microsecond)
		nw.Spines[1].Downlink(1).SetPropDelay(50 * sim.Microsecond)
		opts := DefaultOptions()
		opts.ReorderTimeout = reorder
		bal := &sprayBalancer{}
		tr := New(nw, opts, func(h *net.Host) Balancer { return bal })
		tr.StartFlow(0, 2, 3_000_000)
		eng.Run(sim.Second)
		return bal.retransmits
	}
	noBuf := run(0)
	withBuf := run(400 * sim.Microsecond)
	if noBuf == 0 {
		t.Fatal("expected spurious retransmits when spraying across skewed paths")
	}
	if withBuf >= noBuf {
		t.Fatalf("reorder buffer did not help: %d -> %d", noBuf, withBuf)
	}
}

type sprayBalancer struct {
	BaseBalancer
	i           int
	retransmits int
}

func (b *sprayBalancer) Name() string           { return "spray" }
func (b *sprayBalancer) SelectPath(f *Flow) int { b.i++; return b.i % 2 }
func (b *sprayBalancer) OnRetransmit(*Flow, int) {
	b.retransmits++
}

func TestReorderBufferStillRecoversRealLoss(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ReorderTimeout = 400 * sim.Microsecond
	bal := &sprayBalancer{}
	tr := New(nw, opts, func(h *net.Host) Balancer { return bal })
	n := 0
	nw.Spines[0].AddDropFn(func(p *net.Packet) bool {
		if p.Kind != net.Data {
			return false
		}
		n++
		return n == 25
	})
	f := tr.StartFlow(0, 2, 2_000_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow with reorder buffer did not recover from loss")
	}
}

func TestUDPSenderRate(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &UDPSink{}
	sink.Attach(nw.Hosts[2])
	u := &UDPSender{Eng: eng, Host: nw.Hosts[0], Dst: 2, RateBps: 2e9, Paths: []int{0}}
	u.Start()
	eng.Run(10 * sim.Millisecond)
	u.Stop()
	gotBps := float64(sink.Bytes+uint64(sink.Pkts)*net.HeaderBytes) * 8 / 0.010
	if gotBps < 1.8e9 || gotBps > 2.2e9 {
		t.Fatalf("UDP rate = %.3g bps, want ~2e9", gotBps)
	}
}

func TestUDPSprayCyclesPaths(t *testing.T) {
	eng := sim.NewEngine()
	nw, _ := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	u := &UDPSender{Eng: eng, Host: nw.Hosts[0], Dst: 2, RateBps: 5e9, Paths: []int{0, 1}}
	u.Start()
	eng.Run(sim.Millisecond)
	u.Stop()
	if nw.Spines[0].Downlink(1).TxPackets == 0 || nw.Spines[1].Downlink(1).TxPackets == 0 {
		t.Fatal("UDP spray did not use both paths")
	}
}

func TestManyFlowsAllFinish(t *testing.T) {
	eng, _, tr, _ := testFabric(t, 4, DefaultOptions())
	var flows []*Flow
	for i := 0; i < 50; i++ {
		flows = append(flows, tr.StartFlow(i%2, 2+i%2, int64(10_000+i*1000)))
	}
	eng.Run(sim.Second)
	for i, f := range flows {
		if !f.Done {
			t.Fatalf("flow %d unfinished", i)
		}
	}
}

func TestGoBackNAfterRTOResendsFromCumAck(t *testing.T) {
	eng, nw, tr, bal := testFabric(t, 2, DefaultOptions())
	// Kill spine 0 permanently; flow pinned to it must keep timing out
	// without progress, with bounded retransmission attempts.
	nw.Spines[0].AddDropFn(func(p *net.Packet) bool { return true })
	bal.path = 0
	f := tr.StartFlow(0, 2, 1_000_000)
	eng.Run(500 * sim.Millisecond)
	if f.AckedBytes() != 0 {
		t.Fatal("blackholed flow made progress")
	}
	if bal.timeouts < 2 {
		t.Fatalf("expected repeated RTOs, got %d", bal.timeouts)
	}
}

// TestAcksAndDataWithoutALiveFlow: segments and ACKs that find no running
// flow behave as with one receiver and one sender map per host, and never
// index out of range. Data is ACKed from its host's receiver state, which
// outlives the flow, and each host keeps its own state per flow ID; an ACK
// for a finished flow, a cancelled RepFlow copy or an ID never assigned is
// ignored.
func TestAcksAndDataWithoutALiveFlow(t *testing.T) {
	eng, nw, tr, _ := testFabric(t, 2, DefaultOptions())
	var acks []net.Packet // every ACK reaching host 0
	ep0 := tr.Endpoints[0]
	nw.Hosts[0].Handle(net.Ack, func(p *net.Packet) {
		acks = append(acks, *p)
		ep0.onAck(p)
	})
	// send delivers one full segment of flow id from host 0 to dst and
	// returns the cumulative ACK it draws.
	send := func(dst int, id uint64, seq int64) int64 {
		t.Helper()
		pkt := nw.AllocPacket()
		*pkt = net.Packet{Kind: net.Data, Flow: id, Src: 0, Dst: dst, Seq: seq,
			Payload: net.MSS, Wire: net.MaxPacketBytes, Path: 0}
		acks = acks[:0]
		nw.Hosts[0].Send(pkt)
		eng.Run(eng.Now() + sim.Millisecond)
		if len(acks) != 1 || acks[0].Flow != id {
			t.Fatalf("segment of flow %d to host %d drew ACKs %+v, want one", id, dst, acks)
		}
		return acks[0].AckSeq
	}

	// A finished flow: a late duplicate is ACKed at the flow's end and its
	// ACK changes nothing.
	f := tr.StartFlow(0, 2, 10_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	cwnd := f.Cwnd()
	if got := send(2, f.ID, 0); got != 10_000 {
		t.Errorf("duplicate of a finished flow ACKed at %d, want 10000", got)
	}
	if f.Cwnd() != cwnd || f.AckedBytes() != 10_000 || tr.FinishedCount() != 1 {
		t.Errorf("an ACK for a finished flow reached it: cwnd %v -> %v, acked %d, finished %d",
			cwnd, f.Cwnd(), f.AckedBytes(), tr.FinishedCount())
	}
	// The same ID at another host is that host's own flow.
	if got := send(3, f.ID, 0); got != net.MSS {
		t.Errorf("flow %d's first segment at host 3 ACKed at %d, want %d", f.ID, got, net.MSS)
	}

	// A cancelled RepFlow copy: its segments in flight are still ACKed, and
	// the ACKs find no sender.
	tr.Opts.ReplicateBelow = DefaultRepFlowThreshold
	g := tr.StartFlow(0, 2, 10_000)
	tr.Opts.ReplicateBelow = 0
	replica := g.Members()[1]
	tr.cancel(replica)
	acks = acks[:0]
	eng.Run(eng.Now() + sim.Second)
	var last int64
	for _, a := range acks {
		if a.Flow == replica.ID {
			last = a.AckSeq
		}
	}
	if !g.Done || winner(g) != g.Members()[0] {
		t.Fatal("the primary did not win after the replica was cancelled")
	}
	if last != 10_000 || replica.AckedBytes() != 0 {
		t.Errorf("cancelled copy: last ACK %d (want 10000), acked bytes %d (want 0)", last, replica.AckedBytes())
	}

	// IDs never assigned: each host keeps cumulative state per ID.
	for _, id := range []uint64{0, 1 << 40} {
		if a, b, c := send(2, id, 0), send(2, id, net.MSS), send(3, id, 0); a != net.MSS || b != 2*net.MSS || c != net.MSS {
			t.Errorf("flow ID %d: ACKs %d, %d at host 2 and %d at host 3, want %d, %d and %d",
				id, a, b, c, net.MSS, 2*net.MSS, net.MSS)
		}
	}

	// An ID not assigned yet: the slot adopts the state its stray segment
	// left, as one map entry per host served both.
	id := tr.nextFlowID + 1
	send(2, id, 0)
	stray := tr.stray[strayKey{2, id}]
	if g := tr.StartFlow(0, 2, 5_000); g.ID != id {
		t.Fatalf("opened flow %d, want %d", g.ID, id)
	}
	eng.Run(eng.Now() + sim.Second)
	if stray == nil || tr.rcv[id] != stray {
		t.Error("the assigned ID's slot did not adopt the stray receiver state")
	}
}

// TestReorderMapOnlyAtFirstHole: a flow whose segments all arrive in order
// never allocates its receiver's out-of-order map; the first hole allocates
// it, and the hole's fill coalesces every buffered segment as before.
func TestReorderMapOnlyAtFirstHole(t *testing.T) {
	eng, nw, tr, _ := testFabric(t, 2, DefaultOptions())
	f := tr.StartFlow(0, 2, 1_000_000)
	eng.Run(sim.Second)
	if !f.Done || tr.Retransmits != 0 {
		t.Fatalf("in-order flow: done %v, %d retransmits", f.Done, tr.Retransmits)
	}
	if r := tr.rcv[f.ID]; r == nil || r.segs != nil {
		t.Fatal("an in-order flow allocated its reorder map")
	}

	var acks []int64
	nw.Hosts[0].Handle(net.Ack, func(p *net.Packet) { acks = append(acks, p.AckSeq) })
	const id = 1 << 40 // never assigned
	for _, seg := range []int64{1, 2, 4, 0, 3} {
		pkt := nw.AllocPacket()
		*pkt = net.Packet{Kind: net.Data, Flow: id, Src: 0, Dst: 2, Seq: seg * net.MSS,
			Payload: net.MSS, Wire: net.MaxPacketBytes, Path: 0}
		nw.Hosts[0].Send(pkt)
		eng.Run(eng.Now() + sim.Millisecond)
		if r := tr.receiver(2, id); seg == 1 && r.segs == nil {
			t.Fatal("the first hole did not allocate the reorder map")
		}
	}
	want := []int64{0, 0, 0, 3 * net.MSS, 5 * net.MSS}
	if len(acks) != len(want) {
		t.Fatalf("ACKs %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("ACKs %v, want %v", acks, want)
		}
	}
	if r := tr.receiver(2, id); len(r.segs) != 0 || r.cumRecv != 5*net.MSS {
		t.Fatalf("after the fills: %d segments buffered, cumulative %d", len(r.segs), r.cumRecv)
	}
}
