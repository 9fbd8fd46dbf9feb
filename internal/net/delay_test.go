package net

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
)

// delayFabric builds a 2x2x2 fabric and returns the engine and network.
func delayFabric(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := NewLeafSpine(eng, sim.NewRNG(1), Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10_000_000_000, FabricRateBps: 10_000_000_000,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func txNs(wire int, rateBps int64) sim.Time {
	return sim.Time(int64(wire) * 8 * sim.Second / rateBps)
}

// delayOf copies a delivered packet's delay record, failing when it carries
// none: the fabric reuses the record once the handler returns.
func delayOf(t *testing.T, p *Packet) Delay {
	t.Helper()
	d := p.Delay()
	if d == nil {
		t.Fatalf("packet of flow %d delivered without a delay record", p.Flow)
	}
	return *d
}

// TestDelayDecompositionIdleFabric checks that, with a delay account armed,
// a packet crossing an idle fabric accumulates exactly four hops of
// serialization and propagation and zero queueing.
func TestDelayDecompositionIdleFabric(t *testing.T) {
	eng, nw := delayFabric(t)
	nw.EnableDelayAccount()
	var got Delay
	nw.Hosts[2].Handle(Data, func(p *Packet) { got = delayOf(t, p) })
	pkt := nw.AllocPacket()
	*pkt = Packet{Kind: Data, Flow: 7, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0}
	nw.Hosts[0].Send(pkt)
	eng.RunAll()

	ser := 4 * txNs(MaxPacketBytes, 10_000_000_000)
	if got.SerNs != ser {
		t.Fatalf("SerNs = %d, want %d", got.SerNs, ser)
	}
	if got.PropNs != 4000 {
		t.Fatalf("PropNs = %d, want 4000", got.PropNs)
	}
	if got.QueueNs != 0 {
		t.Fatalf("QueueNs = %d on an idle fabric", got.QueueNs)
	}
	if got.Hops != 4 {
		t.Fatalf("Hops = %d, want 4", got.Hops)
	}
}

// TestDelayDecompositionQueueing checks that, with a delay account armed, a
// packet held behind another at the access link is charged the wait on hop
// 0 and nowhere else.
func TestDelayDecompositionQueueing(t *testing.T) {
	eng, nw := delayFabric(t)
	nw.EnableDelayAccount()
	var recs []Delay
	nw.Hosts[2].Handle(Data, func(p *Packet) { recs = append(recs, delayOf(t, p)) })
	for i := 0; i < 2; i++ {
		pkt := nw.AllocPacket()
		*pkt = Packet{Kind: Data, Flow: uint64(i), Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0}
		nw.Hosts[0].Send(pkt)
	}
	eng.RunAll()
	if len(recs) != 2 {
		t.Fatalf("delivered %d packets", len(recs))
	}
	ser := txNs(MaxPacketBytes, 10_000_000_000)
	second := recs[1]
	if second.QueueNs != ser {
		t.Fatalf("QueueNs = %d, want one serialization time %d", second.QueueNs, ser)
	}
	if second.HopQueue[0] != ser || second.HopQueue[1] != 0 {
		t.Fatalf("HopQueue = %v, want wait only on hop 0", second.HopQueue)
	}
}

// TestNoDelayRecordWithoutAccount: with no delay account armed, packets
// cross the fabric, queueing included, without a delay record. Arming the
// account gives every packet sent afterwards a record, which returns to the
// pool, not with the packet, once the packet is freed.
func TestNoDelayRecordWithoutAccount(t *testing.T) {
	eng, nw := delayFabric(t)
	delivered, withRecord := 0, 0
	nw.Hosts[2].Handle(Data, func(p *Packet) {
		delivered++
		if p.Delay() != nil {
			withRecord++
		}
	})
	send := func(n int) {
		for i := 0; i < n; i++ {
			pkt := nw.AllocPacket()
			*pkt = Packet{Kind: Data, Flow: 1, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: i % 2}
			nw.Hosts[0].Send(pkt)
		}
		eng.RunAll()
	}
	send(20)
	if delivered != 20 || withRecord != 0 {
		t.Fatalf("unarmed: %d of %d delivered packets carried a delay record", withRecord, delivered)
	}
	if len(nw.delayFree) != 0 {
		t.Fatalf("unarmed: %d delay records pooled", len(nw.delayFree))
	}

	nw.EnableDelayAccount()
	delivered = 0
	send(20)
	if delivered != 20 || withRecord != 20 {
		t.Fatalf("armed: %d of %d delivered packets carried a delay record", withRecord, delivered)
	}
	if pooled := len(nw.delayFree); pooled != 20 {
		t.Fatalf("armed: %d delay records pooled after a burst of 20 packets, want 20", pooled)
	}
	for p := nw.pktFree; p != nil; p = p.next {
		if p.delay != nil {
			t.Fatal("a pooled packet kept its delay record")
		}
	}
}

// TestDelayAccountAggregates checks the per-flow fabric-wide aggregation.
func TestDelayAccountAggregates(t *testing.T) {
	eng, nw := delayFabric(t)
	acct := nw.EnableDelayAccount()
	nw.Hosts[2].Handle(Data, func(p *Packet) {})
	for i := 0; i < 3; i++ {
		pkt := nw.AllocPacket()
		*pkt = Packet{Kind: Data, Flow: 5, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0, Retx: i == 2}
		nw.Hosts[0].Send(pkt)
	}
	eng.RunAll()
	fd := acct.Flow(5)
	if fd == nil || fd.DataPkts != 3 || fd.RetxPkts != 1 {
		t.Fatalf("flow aggregate = %+v, want 3 data / 1 retx", fd)
	}
	if fd.SerNs != 3*4*txNs(MaxPacketBytes, 10_000_000_000) {
		t.Fatalf("SerNs = %d", fd.SerNs)
	}
	if fd.HopPkts[0] != 3 || fd.HopPkts[3] != 3 {
		t.Fatalf("HopPkts = %v", fd.HopPkts)
	}
	// Packets 2 and 3 each waited behind their predecessor at hop 0.
	if fd.HopQueueNs[0] == 0 || fd.QueueNs != fd.HopQueueNs[0] {
		t.Fatalf("queue decomposition = %+v", fd)
	}
	if flows := acct.Flows(); len(flows) != 1 || flows[0].Flow != 5 {
		t.Fatalf("Flows() = %v", flows)
	}
}

// TestTraceHooksObserveDropsAndMarks checks the fabric-wide drop and
// ECN-mark observers.
func TestTraceHooksObserveDropsAndMarks(t *testing.T) {
	eng, nw := delayFabric(t)
	var drops, marks []uint64
	nw.SetTraceHooks(
		func(p *Packet) { drops = append(drops, p.Flow) },
		func(p *Packet) { marks = append(marks, p.Flow) },
	)
	nw.Hosts[2].Handle(Data, func(p *Packet) {})

	// Cut path 1 entirely: a packet pinned to it dies at the leaf uplink.
	nw.SetCable(0, 0, 1, 0)
	pkt := nw.AllocPacket()
	*pkt = Packet{Kind: Data, Flow: 42, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 1}
	nw.Hosts[0].Send(pkt)
	eng.RunAll()
	if len(drops) != 1 || drops[0] != 42 {
		t.Fatalf("drop hook saw %v, want flow 42", drops)
	}

	// Flood one path far past the ECN threshold (95 KB at 10 Gbps): the
	// marking port must report each marked packet.
	for i := 0; i < 120; i++ {
		p := nw.AllocPacket()
		*p = Packet{Kind: Data, Flow: 9, Src: 0, Dst: 2, Wire: MaxPacketBytes, Path: 0, ECT: true}
		nw.Hosts[0].Send(p)
	}
	eng.RunAll()
	if len(marks) == 0 {
		t.Fatal("no ECN marks observed despite a 120-packet burst")
	}
	for _, f := range marks {
		if f != 9 {
			t.Fatalf("mark hook saw flow %d", f)
		}
	}
}
