package net

import (
	"math/rand"
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

// TestPktRingModel drives push and pop streams through a port's hi and lo
// rings and checks every pop against a plain slice. The streams wrap the
// head past the end of the buffer and grow rings while they are wrapped;
// every capacity must be a power of two, which the index mask relies on.
func TestPktRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Port
	for _, ring := range []struct {
		name string
		r    *pktRing
	}{{"hi", &p.hi}, {"lo", &p.lo}} {
		name, r := ring.name, ring.r
		var model []*Packet
		var seq int64
		wrapped, grewWrapped := 0, 0
		for phase := 0; phase < 400; phase++ {
			pushShare := 30 + rng.Intn(41) // 30-70%: the depth drifts both ways
			for op := rng.Intn(64); op >= 0; op-- {
				if len(model) == 0 || rng.Intn(100) < pushShare {
					if r.n == len(r.buf) && r.head != 0 {
						grewWrapped++
					}
					seq++
					pkt := &Packet{Seq: seq}
					r.push(pkt)
					model = append(model, pkt)
				} else {
					got := r.pop()
					if got != model[0] {
						t.Fatalf("%s: pop returned seq %d, want %d", name, got.Seq, model[0].Seq)
					}
					model = model[1:]
				}
				if r.n != len(model) {
					t.Fatalf("%s: ring holds %d packets, model %d", name, r.n, len(model))
				}
				if c := len(r.buf); c < 16 || c&(c-1) != 0 {
					t.Fatalf("%s: capacity %d is not a power of two of at least 16", name, c)
				}
				if r.head+r.n > len(r.buf) {
					wrapped++
				}
			}
		}
		for len(model) > 0 {
			if got := r.pop(); got != model[0] {
				t.Fatalf("%s: draining pop returned seq %d, want %d", name, got.Seq, model[0].Seq)
			}
			model = model[1:]
		}
		if wrapped == 0 || grewWrapped == 0 {
			t.Errorf("%s: the streams wrapped %d times and grew a wrapped ring %d times; want both",
				name, wrapped, grewWrapped)
		}
	}
}
