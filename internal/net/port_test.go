package net

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
)

func newTestPort(t *testing.T, rate int64, prop sim.Time) (*sim.Engine, *Port, *[]*Packet) {
	t.Helper()
	eng := sim.NewEngine()
	var got []*Packet
	p := NewPort(eng, "test", PortConfig{RateBps: rate, PropDelay: prop, ECNK: -1},
		func(pkt *Packet) { got = append(got, pkt) })
	return eng, p, &got
}

func TestPortDeliveryTiming(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 10*sim.Microsecond)
	pkt := &Packet{Kind: Data, Wire: 1500}
	p.Enqueue(pkt)
	eng.RunAll()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	// 1500 B at 1 Gbps = 12 us serialization + 10 us propagation.
	want := sim.Time(12_000 + 10_000)
	if eng.Now() != want {
		t.Fatalf("delivery at %d ns, want %d", eng.Now(), want)
	}
}

func TestPortFIFOWithinClass(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	for i := 0; i < 10; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 100, Seq: int64(i)})
	}
	eng.RunAll()
	for i, pkt := range *got {
		if pkt.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d; FIFO violated", i, pkt.Seq)
		}
	}
}

func TestPortStrictPriority(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	// Fill the data queue first, then enqueue an ACK: the ACK must overtake
	// all but the in-flight data packet.
	for i := 0; i < 5; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500, Seq: int64(i)})
	}
	p.Enqueue(&Packet{Kind: Ack, Wire: 40})
	eng.RunAll()
	if (*got)[0].Kind != Data {
		t.Fatal("in-flight data packet should complete first")
	}
	if (*got)[1].Kind != Ack {
		t.Fatalf("ACK did not overtake queued data: %v", (*got)[1].Kind)
	}
}

func TestPortDropTail(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	// Queue capacity for 1 Gbps defaults to 5*30000 = 150000 bytes.
	n := 0
	for i := 0; i < 200; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500})
		n++
	}
	eng.RunAll()
	if p.Drops == 0 {
		t.Fatal("no drops despite 300 KB offered to a 150 KB queue")
	}
	if len(*got)+int(p.Drops) != n {
		t.Fatalf("delivered %d + dropped %d != enqueued %d", len(*got), p.Drops, n)
	}
}

func TestPortECNMarking(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	// ECN threshold at 1 Gbps is 30 KB: the first ~20 packets must be
	// unmarked, later ones marked.
	for i := 0; i < 60; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500, ECT: true})
	}
	eng.RunAll()
	if p.ECNMarks == 0 {
		t.Fatal("no ECN marks despite queue exceeding threshold")
	}
	if (*got)[0].CE {
		t.Fatal("first packet marked despite empty queue")
	}
	last := (*got)[len(*got)-1]
	_ = last
	marked := 0
	for _, pkt := range *got {
		if pkt.CE {
			marked++
		}
	}
	if marked != int(p.ECNMarks) {
		t.Fatalf("marked %d packets but counter says %d", marked, p.ECNMarks)
	}
}

func TestPortNoECNWithoutECT(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	for i := 0; i < 60; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500, ECT: false})
	}
	eng.RunAll()
	for _, pkt := range *got {
		if pkt.CE {
			t.Fatal("non-ECT packet was CE-marked")
		}
	}
}

func TestPortHighPriorityNeverDropped(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	for i := 0; i < 300; i++ {
		p.Enqueue(&Packet{Kind: Ack, Wire: 40})
	}
	eng.RunAll()
	if len(*got) != 300 {
		t.Fatalf("high-priority class dropped packets: %d/300", len(*got))
	}
}

func TestPortDownDropsEverything(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	p.SetRateBps(0)
	p.Enqueue(&Packet{Kind: Data, Wire: 100})
	p.Enqueue(&Packet{Kind: Ack, Wire: 40})
	eng.RunAll()
	if len(*got) != 0 || p.Drops != 2 {
		t.Fatalf("cut link delivered %d, dropped %d", len(*got), p.Drops)
	}
}

// TestPortCutMidTransmission cuts a busy port with data and ACKs queued
// behind the packet on the wire: that packet still leaves, and every queued
// one is dropped through the drop hook once the transmitter frees up.
func TestPortCutMidTransmission(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	hooked := 0
	p.onDrop = func(*Packet) { hooked++ }
	for i := 0; i < 3; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500, Seq: int64(i)})
	}
	p.Enqueue(&Packet{Kind: Ack, Wire: 40})
	p.Enqueue(&Packet{Kind: Ack, Wire: 40})
	eng.Schedule(6*sim.Microsecond, func() { p.SetRateBps(0) }) // mid-way through 12 us
	eng.RunAll()
	if len(*got) != 1 || (*got)[0].Seq != 0 {
		t.Fatalf("cut port delivered %d packets, want only the one on the wire", len(*got))
	}
	if p.Drops != 4 || hooked != 4 {
		t.Fatalf("dropped %d (hook saw %d), want all 4 queued", p.Drops, hooked)
	}
	if p.Holding() != 0 || p.QueuedBytes() != 0 || p.busy {
		t.Fatalf("cut port not drained: holding %d, queued %d B, busy %v",
			p.Holding(), p.QueuedBytes(), p.busy)
	}
}

// TestPortCutRestoredInFlightKeepsQueue: a cut healed before the current
// transmission ends never reaches the transmitter, so the queue survives.
func TestPortCutRestoredInFlightKeepsQueue(t *testing.T) {
	eng, p, got := newTestPort(t, 1_000_000_000, 0)
	for i := 0; i < 3; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 1500})
	}
	eng.Schedule(3*sim.Microsecond, func() { p.SetRateBps(0) })
	eng.Schedule(6*sim.Microsecond, func() { p.SetRateBps(1_000_000_000) })
	eng.RunAll()
	if len(*got) != 3 || p.Drops != 0 {
		t.Fatalf("delivered %d, dropped %d; want 3 and 0", len(*got), p.Drops)
	}
}

// TestPortUtilizationArming: a port runs no estimator until a reader arms
// one, every reader gets the same one, and it counts a packet before OnTx.
func TestPortUtilizationArming(t *testing.T) {
	eng, p, _ := newTestPort(t, 1_000_000_000, 0)
	p.Enqueue(&Packet{Kind: Data, Wire: 1500})
	eng.RunAll()
	if p.util != nil {
		t.Fatal("estimator armed without a reader")
	}
	u := p.Utilization()
	if p.Utilization() != u {
		t.Fatal("second Utilization call returned another estimator")
	}
	if r := u.RateBps(eng.Now()); r != 0 {
		t.Fatalf("estimator counted traffic from before it was armed: %.3g bps", r)
	}
	var atTx float64
	p.OnTx = func(*Packet) { atTx = u.RateBps(eng.Now()) }
	p.Enqueue(&Packet{Kind: Data, Wire: 1500})
	eng.RunAll()
	if atTx <= 0 {
		t.Fatal("OnTx ran before the estimator counted the packet")
	}
}

func TestPortOnTxHook(t *testing.T) {
	eng, p, _ := newTestPort(t, 1_000_000_000, 0)
	seen := 0
	p.OnTx = func(pkt *Packet) { seen++ }
	for i := 0; i < 5; i++ {
		p.Enqueue(&Packet{Kind: Data, Wire: 100})
	}
	eng.RunAll()
	if seen != 5 {
		t.Fatalf("OnTx fired %d times, want 5", seen)
	}
}

func TestPortThroughputAtCapacity(t *testing.T) {
	eng, p, got := newTestPort(t, 10_000_000_000, 0)
	// Saturate: 1000 packets of 1500 B at 10 Gbps should take 1500*8*100 ns
	// each = 1.2 us => 1.2 ms total.
	var inject func(i int)
	inject = func(i int) {
		if i >= 1000 {
			return
		}
		p.Enqueue(&Packet{Kind: Data, Wire: 1500})
		eng.Schedule(1200, func() { inject(i + 1) }) // matched to line rate
	}
	inject(0)
	eng.RunAll()
	if len(*got) != 1000 {
		t.Fatalf("delivered %d/1000 at line rate", len(*got))
	}
	wantDur := sim.Time(1000 * 1200)
	if eng.Now() < wantDur || eng.Now() > wantDur+2400 {
		t.Fatalf("1000 packets took %d ns, want ~%d", eng.Now(), wantDur)
	}
}

func TestDefaultECNK(t *testing.T) {
	cases := []struct {
		rate int64
		want int
	}{
		{1_000_000_000, 30_000},
		{10_000_000_000, 95_000},
		{500_000_000, 15_000},
		{0, 0},
	}
	for _, c := range cases {
		if got := DefaultECNK(c.rate); got != c.want {
			t.Errorf("DefaultECNK(%d) = %d, want %d", c.rate, got, c.want)
		}
	}
	// Interpolation must be monotone between 1 and 10 Gbps.
	prev := DefaultECNK(1_000_000_000)
	for r := int64(2e9); r <= 10e9; r += 1e9 {
		k := DefaultECNK(r)
		if k < prev {
			t.Fatalf("ECN threshold not monotone at %d bps", r)
		}
		prev = k
	}
}

// TestPktQueueModel drives random push and pop streams through a port's hi
// and lo queues and checks every pop against a plain slice; then it cuts a
// port with both queues full and checks that every queued packet returns to
// the pool exactly once, with PoolFree counting them.
func TestPktQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Port
	for _, queue := range []struct {
		name string
		q    *pktQueue
	}{{"hi", &p.hi}, {"lo", &p.lo}} {
		name, q := queue.name, queue.q
		var model []*Packet
		var seq int64
		emptied := 0
		for phase := 0; phase < 400; phase++ {
			pushShare := 30 + rng.Intn(41) // 30-70%: the depth drifts both ways
			ops := rng.Intn(64)
			if phase%40 == 39 { // drain, then push onto the empty queue
				pushShare, ops = 0, len(model)
			}
			for op := ops; op >= 0; op-- {
				if len(model) == 0 || rng.Intn(100) < pushShare {
					seq++
					// A stale link, as a packet from the pool has, must not
					// survive the push.
					pkt := &Packet{Seq: seq, next: &Packet{Seq: -seq}}
					q.push(pkt)
					model = append(model, pkt)
				} else {
					got := q.pop()
					if got != model[0] {
						t.Fatalf("%s: pop returned seq %d, want %d", name, got.Seq, model[0].Seq)
					}
					model = model[1:]
					if len(model) == 0 {
						emptied++
					}
				}
				x, n := q.head, 0
				for ; x != nil && n < len(model); x, n = x.next, n+1 {
					if x != model[n] {
						t.Fatalf("%s: queue position %d holds seq %d, model %d", name, n, x.Seq, model[n].Seq)
					}
				}
				if x != nil || n != len(model) || (n == 0) != (q.tail == nil) || n > 0 && q.tail != model[n-1] {
					t.Fatalf("%s: the queue does not hold exactly the model's %d packets", name, len(model))
				}
			}
		}
		for len(model) > 0 {
			if got := q.pop(); got != model[0] {
				t.Fatalf("%s: draining pop returned seq %d, want %d", name, got.Seq, model[0].Seq)
			}
			model = model[1:]
		}
		if q.head != nil || q.tail != nil || emptied == 0 {
			t.Errorf("%s: drained queue has head %p, tail %p; emptied %d times mid-stream",
				name, q.head, q.tail, emptied)
		}
	}

	// Cut a fabric port while it transmits, with data and ACKs queued
	// behind the packet on the wire.
	eng, nw := delayFabric(t)
	port := nw.Hosts[0].Uplink()
	var sent []*Packet
	for i := 0; i < 8; i++ {
		pkt := nw.AllocPacket()
		*pkt = Packet{Kind: Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0}
		if i%3 == 2 {
			*pkt = Packet{Kind: Ack, Flow: uint64(i), Src: 0, Dst: 2, Wire: AckBytes, Path: 0}
		}
		sent = append(sent, pkt)
		nw.Hosts[0].Send(pkt)
	}
	eng.Schedule(100, func() { port.SetRateBps(0) })
	eng.RunAll()
	if port.Drops != 7 || nw.PacketStats().Delivered != 1 {
		t.Fatalf("cut port dropped %d and the fabric delivered %d; want 7 and the one on the wire",
			port.Drops, nw.PacketStats().Delivered)
	}
	pooled := map[*Packet]int{}
	n := 0
	for x := nw.pktFree; x != nil && n <= 2*len(sent); x = x.next {
		pooled[x]++
		n++
	}
	for i, pkt := range sent {
		if pooled[pkt] != 1 {
			t.Errorf("packet %d is in the pool %d times, want once", i, pooled[pkt])
		}
	}
	if n != len(sent) || nw.Dump().PoolFree != len(sent) {
		t.Fatalf("pool lists %d packets and PoolFree reads %d, want %d", n, nw.Dump().PoolFree, len(sent))
	}
}

// TestFirstBurstAllocatesNothing queues a 300-packet burst on a port that
// has never queued a packet, from a warm packet pool and engine, and drains
// it: queues are linked through the packets, so the burst allocates nothing
// (a growable ring would size itself to the burst first).
func TestFirstBurstAllocatesNothing(t *testing.T) {
	const burst = 300
	eng, nw := delayFabric(t)
	send := func(src, dst int) {
		for i := 0; i < burst; i++ {
			pkt := nw.AllocPacket()
			*pkt = Packet{Kind: Data, Flow: uint64(i), Src: src, Dst: dst, Wire: MaxPacketBytes, Path: 0}
			nw.Hosts[src].Send(pkt)
		}
		eng.RunAll()
	}
	// Warm-up over other ports: host 1's access link, the same leaf uplink
	// and spine downlink, and host 3's downlink. It fills the pool with
	// burst packets and the engine with the events a burst keeps pending.
	send(1, 3)
	if got := nw.Dump().PoolFree; got != burst {
		t.Fatalf("warm-up left %d packets in the pool, want %d", got, burst)
	}
	port := nw.Hosts[0].Uplink()
	if port.TxPackets != 0 {
		t.Fatal("the measured port carried warm-up traffic")
	}
	// As testing.AllocsPerRun does, measure on one P, so that no other
	// goroutine allocates alongside the burst.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(0, 2)
	runtime.ReadMemStats(&after)
	if port.TxPackets != burst || port.hiWater < (burst-1)*MaxPacketBytes {
		t.Fatalf("the burst did not queue on the port: sent %d, deepest queue %d B", port.TxPackets, port.hiWater)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("the first burst on a port made %d allocations (%d B), want none",
			n, after.TotalAlloc-before.TotalAlloc)
	}
}
