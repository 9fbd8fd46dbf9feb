package transport

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// rcvFlow is the receiver-side state of one flow. Segments are MSS-aligned,
// so a seq->end map suffices to track out-of-order data.
type rcvFlow struct {
	host    int // the receiving host
	cumRecv int64
	// segs maps out-of-order segment start -> end. It stays nil until the
	// flow's first hole, so an in-order flow never allocates it.
	segs map[int64]int64

	// Reordering-buffer state (enabled via Options.ReorderTimeout): while a
	// hole exists, duplicate ACKs are suppressed until the hole persists
	// past the timeout; then the buffer "releases" and dupACKs flow so that
	// genuine losses still trigger fast retransmit.
	reorderTimer *sim.Event
	reorderOpen  bool
}

// strayKey names receiver state kept outside Transport.rcv: a host and a
// flow ID.
type strayKey struct {
	host int
	id   uint64
}

// receiver returns the state host keeps for flow id, creating it at the
// flow's first segment. The first host to receive an assigned ID owns its
// slot in tr.rcv. Data for an ID not assigned yet, or for an assigned ID at
// another host, keeps its state in tr.stray, which a slot adopts once the
// ID is assigned: each host keeps its own state per flow ID, whatever the
// packets claim.
func (tr *Transport) receiver(host int, id uint64) *rcvFlow {
	k := strayKey{host, id}
	if id < uint64(len(tr.rcv)) {
		r := tr.rcv[id]
		if r == nil {
			if r = tr.stray[k]; r != nil {
				delete(tr.stray, k)
			} else {
				r = &rcvFlow{host: host}
			}
			tr.rcv[id] = r
		}
		if r.host == host {
			return r
		}
	}
	r := tr.stray[k]
	if r == nil {
		if tr.stray == nil {
			tr.stray = map[strayKey]*rcvFlow{}
		}
		r = &rcvFlow{host: host}
		tr.stray[k] = r
	}
	return r
}

func (ep *Endpoint) onData(pkt *net.Packet) {
	r := ep.tr.receiver(ep.host.ID, pkt.Flow)
	end := pkt.Seq + int64(pkt.Payload)
	progressed := false
	if end > r.cumRecv {
		if pkt.Seq <= r.cumRecv {
			r.cumRecv = end
			progressed = true
		} else if cur, ok := r.segs[pkt.Seq]; !ok || end > cur {
			if r.segs == nil {
				r.segs = map[int64]int64{}
			}
			r.segs[pkt.Seq] = end
		}
		// Coalesce any buffered segments now contiguous.
		for len(r.segs) > 0 {
			advanced := false
			for s, e := range r.segs {
				if s <= r.cumRecv {
					if e > r.cumRecv {
						r.cumRecv = e
						progressed = true
					}
					delete(r.segs, s)
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
	} else {
		// Fully duplicate data (e.g. go-back-N after an RTO): re-ACK so the
		// sender's cumulative state advances.
		progressed = true
	}

	// The ACKs echo the segment's forward queueing delay, which only its
	// delay record holds.
	var queue sim.Time
	if d := pkt.Delay(); d != nil {
		queue = d.QueueNs
	}
	timeout := ep.tr.Opts.ReorderTimeout
	if timeout <= 0 {
		ep.sendAck(pkt, queue, r)
		return
	}

	// Reordering buffer behaviour.
	if progressed {
		if len(r.segs) == 0 {
			r.reorderOpen = false
			if r.reorderTimer != nil {
				r.reorderTimer.Cancel()
				r.reorderTimer = nil
			}
		}
		ep.sendAck(pkt, queue, r)
		return
	}
	if r.reorderOpen {
		// Hole outlived the timeout: behave like plain TCP (dupACK).
		ep.sendAck(pkt, queue, r)
		return
	}
	if r.reorderTimer == nil {
		buffered := len(r.segs)
		// Copy the triggering packet: the fabric recycles *pkt into the
		// packet pool as soon as this handler returns, so the closure must
		// not retain the live pointer past delivery. Its delay record goes
		// back to the pool with it, so the ACKs echo the queue delay read
		// above, never the copy's record.
		trigger := *pkt
		r.reorderTimer = ep.tr.Eng.ScheduleKind(timeout, sim.KindTimer, func() {
			r.reorderTimer = nil
			if len(r.segs) == 0 {
				return
			}
			r.reorderOpen = true
			// Release the buffer: emit the dupACKs plain TCP would have
			// produced for the segments that arrived past the hole.
			n := len(r.segs)
			if buffered > n {
				n = buffered
			}
			if n > 8 {
				n = 8
			}
			for i := 0; i < n; i++ {
				ep.sendAck(&trigger, queue, r)
			}
		})
	}
}

// sendAck emits a cumulative ACK echoing the triggering data packet's
// timestamp, path, CE bit and forward queueing delay. The ACK returns over
// the same path at high priority, as in the paper's switch configuration.
func (ep *Endpoint) sendAck(data *net.Packet, queue sim.Time, r *rcvFlow) {
	ack := ep.tr.Net.AllocPacket()
	*ack = net.Packet{
		Kind:      net.Ack,
		Flow:      data.Flow,
		Src:       data.Dst,
		Dst:       data.Src,
		Wire:      net.AckBytes,
		Path:      data.Path,
		AckSeq:    r.cumRecv,
		EchoSent:  data.SentAt,
		EchoPath:  data.Path,
		EchoCE:    data.CE,
		EchoQueue: queue,
		Retx:      data.Retx,
		SentAt:    ep.tr.Eng.Now(),
	}
	ep.host.Send(ack)
}
