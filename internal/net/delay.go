package net

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/sim"
)

// FlowDelay aggregates the delay decomposition of every packet of one flow
// that reached its destination host. Forward-path (Data) and reverse-path
// (Ack) packets are accounted separately: data queueing is the congestion a
// load balancer can steer around, ACK queueing only inflates the measured
// RTT.
type FlowDelay struct {
	Flow uint64

	// Data-packet totals (forward path).
	DataPkts   uint64
	RetxPkts   uint64 // delivered retransmitted segments
	MarkedPkts uint64 // delivered segments carrying CE
	QueueNs    sim.Time
	SerNs      sim.Time
	PropNs     sim.Time

	// HopQueueNs decomposes data-packet queueing by hop in traversal order
	// (host->leaf, leaf->spine, spine->leaf, leaf->host for inter-leaf
	// traffic); HopPkts counts the packets that traversed each hop.
	HopQueueNs [MaxHops]sim.Time
	HopPkts    [MaxHops]uint64

	// ACK totals (reverse path).
	AckPkts    uint64
	AckQueueNs sim.Time
}

// DelayAccount collects per-flow delay decompositions fabric-wide. Enable it
// with Network.EnableDelayAccount before traffic starts; with it disabled
// packets carry no delay record, and sending, each port and delivery pay a
// single nil check.
type DelayAccount struct {
	flows map[uint64]*FlowDelay
}

// EnableDelayAccount switches on per-flow delay aggregation at every host
// delivery and returns the account (idempotent). From then on Host.Send
// gives every packet a delay record; packets already in flight have none and
// are not counted.
func (n *Network) EnableDelayAccount() *DelayAccount {
	if n.acct == nil {
		n.acct = &DelayAccount{flows: map[uint64]*FlowDelay{}}
	}
	return n.acct
}

// observe folds one delivered packet's delay record into its flow's
// aggregate. Probe traffic is ignored: probes sample paths, they do not
// belong to a flow's completion time. So is a packet without a record: one
// sent before the account was armed.
func (a *DelayAccount) observe(pkt *Packet) {
	d := pkt.delay
	if d == nil {
		return
	}
	switch pkt.Kind {
	case Data, UDPData:
		fd := a.get(pkt.Flow)
		fd.DataPkts++
		if pkt.Retx {
			fd.RetxPkts++
		}
		if pkt.CE {
			fd.MarkedPkts++
		}
		fd.QueueNs += d.QueueNs
		fd.SerNs += d.SerNs
		fd.PropNs += d.PropNs
		hops := int(d.Hops)
		if hops > MaxHops {
			hops = MaxHops
		}
		for i := 0; i < hops; i++ {
			fd.HopQueueNs[i] += d.HopQueue[i]
			fd.HopPkts[i]++
		}
	case Ack:
		fd := a.get(pkt.Flow)
		fd.AckPkts++
		fd.AckQueueNs += d.QueueNs
	}
}

func (a *DelayAccount) get(flow uint64) *FlowDelay {
	fd, ok := a.flows[flow]
	if !ok {
		fd = &FlowDelay{Flow: flow}
		a.flows[flow] = fd
	}
	return fd
}

// Flow returns one flow's aggregate, or nil if no packet of it was
// delivered.
func (a *DelayAccount) Flow(id uint64) *FlowDelay {
	if a == nil {
		return nil
	}
	return a.flows[id]
}

// Flows returns every aggregate sorted by flow ID — the deterministic
// iteration order for exports.
func (a *DelayAccount) Flows() []*FlowDelay {
	if a == nil {
		return nil
	}
	out := make([]*FlowDelay, 0, len(a.flows))
	for _, fd := range a.flows {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}
