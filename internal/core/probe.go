package core

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Prober implements §3.1.3: one probe agent per rack measures the paths to
// every other rack each interval, probing two random paths plus the
// previously best one (power of two choices with memory), and shares the
// results through the rack's Monitor. Probes ride the data queue so they
// sample the congestion data would see; echoes return at high priority.
type Prober struct {
	Mon *Monitor
	Rng *sim.RNG

	// Agent is the probing host of this rack (the paper picks one
	// hypervisor per rack to amortize overhead 100x).
	Agent *net.Host
	// RemoteAgents[d] is the probe agent of leaf d.
	RemoteAgents []*net.Host

	interval sim.Time
	timeout  sim.Time

	prevBest []int // per destination leaf
	nextID   uint64
	pending  map[uint64]*pendingProbe
	free     []*pendingProbe // resolved measurements, for reuse
	probeSet [3]int          // chooseProbeSet's result

	// ProbesSent / ProbeBytes quantify the Table 6 overhead.
	ProbesSent uint64
	ProbeBytes uint64
	ProbesLost uint64

	stopped bool
}

type pendingProbe struct {
	id      uint64
	dstLeaf int
	path    int
	timer   *sim.Event
}

// NewProber wires the agent host's probe handlers and starts the periodic
// probing loop. Call once per rack after transport endpoints are attached.
func NewProber(mon *Monitor, rng *sim.RNG, agents []*net.Host) *Prober {
	p := &Prober{
		Mon:          mon,
		Rng:          rng,
		Agent:        agents[mon.SrcLeaf],
		RemoteAgents: agents,
		interval:     mon.P.ProbeInterval,
		timeout:      mon.P.ProbeTimeout,
		pending:      map[uint64]*pendingProbe{},
		prevBest:     make([]int, len(agents)),
	}
	for i := range p.prevBest {
		p.prevBest[i] = -1
	}
	// Echo handling: any probe reaching this agent is answered; any echo
	// reaching it resolves a pending measurement.
	p.Agent.Handle(net.ProbeEcho, p.onEcho)
	if p.interval > 0 {
		mon.Net.Eng.ScheduleCallKind(p.interval, sim.KindProbe, proberTick, p, nil)
	}
	return p
}

// InstallProbeResponders makes every host answer probes with a
// high-priority echo carrying the probe's timestamp, path and CE mark.
// Responders are independent of probers, so they are installed fabric-wide.
func InstallProbeResponders(nw *net.Network) {
	for _, h := range nw.Hosts {
		h := h
		h.Handle(net.Probe, func(pkt *net.Packet) {
			echo := nw.AllocPacket()
			*echo = net.Packet{
				Kind:     net.ProbeEcho,
				Flow:     pkt.Flow,
				Src:      h.ID,
				Dst:      pkt.Src,
				Wire:     net.ProbeBytes,
				Path:     pkt.Path,
				EchoSent: pkt.SentAt,
				EchoPath: pkt.Path,
				EchoCE:   pkt.CE,
				SentAt:   pkt.SentAt,
			}
			h.Send(echo)
		})
	}
}

// Stop retires the prober: the periodic tick stops rescheduling and any
// in-flight probe timeouts resolve as no-ops. A what-if fork calls this on
// the outgoing scheme's probers; echo handlers stay installed but find no
// pending entries.
func (p *Prober) Stop() {
	p.stopped = true
	for id, pp := range p.pending {
		pp.timer.Cancel()
		delete(p.pending, id)
	}
}

// proberTick and probeTimeout are the prober's event callbacks: package-level
// functions with the prober and the measurement as arguments, so scheduling
// them allocates no closure.
func proberTick(a1, _ any) { a1.(*Prober).tick() }

func probeTimeout(a1, a2 any) { a1.(*Prober).onTimeout(a2.(*pendingProbe)) }

func (p *Prober) tick() {
	if p.stopped {
		return
	}
	now := p.Mon.Net.Eng.Now()
	nw := p.Mon.Net
	for d := 0; d < nw.Cfg.Leaves; d++ {
		if d == p.Mon.SrcLeaf {
			continue
		}
		paths := nw.AvailablePaths(p.Mon.SrcLeaf, d)
		targets := p.chooseProbeSet(paths, d)
		for _, path := range targets {
			p.sendProbe(d, path, now)
		}
	}
	p.Mon.Net.Eng.ScheduleCallKind(p.interval, sim.KindProbe, proberTick, p, nil)
}

// chooseProbeSet returns two random distinct paths plus the previously best
// one (deduplicated), per the power-of-two-choices-with-memory design. The
// result is valid until the next call.
func (p *Prober) chooseProbeSet(paths []int, dstLeaf int) []int {
	switch len(paths) {
	case 0:
		return nil
	case 1:
		return paths
	case 2:
		return paths
	}
	a, b := p.Rng.TwoDistinct(len(paths))
	set := append(p.probeSet[:0], paths[a], paths[b])
	if best := p.prevBest[dstLeaf]; best >= 0 && best != set[0] && best != set[1] {
		for _, q := range paths {
			if q == best {
				set = append(set, best)
				break
			}
		}
	}
	return set
}

func (p *Prober) sendProbe(dstLeaf, path int, now sim.Time) {
	p.nextID++
	id := p.nextID
	dst := p.RemoteAgents[dstLeaf]
	var pp *pendingProbe
	if n := len(p.free); n > 0 {
		pp = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		pp = new(pendingProbe)
	}
	*pp = pendingProbe{id: id, dstLeaf: dstLeaf, path: path}
	pp.timer = p.Mon.Net.Eng.ScheduleCallKind(p.timeout, sim.KindProbe, probeTimeout, p, pp)
	p.pending[id] = pp
	p.ProbesSent++
	p.ProbeBytes += net.ProbeBytes
	pkt := p.Mon.Net.AllocPacket()
	*pkt = net.Packet{
		Kind:   net.Probe,
		Flow:   id,
		Src:    p.Agent.ID,
		Dst:    dst.ID,
		Wire:   net.ProbeBytes,
		ECT:    true,
		Path:   path,
		SentAt: now,
	}
	p.Agent.Send(pkt)
}

// onTimeout counts a probe whose echo did not return in time as lost.
func (p *Prober) onTimeout(pp *pendingProbe) {
	delete(p.pending, pp.id)
	p.ProbesLost++
	p.Mon.OnProbeResult(pp.dstLeaf, pp.path, true, false, 0)
	p.release(pp)
}

// release returns a resolved measurement for reuse by the next probe.
func (p *Prober) release(pp *pendingProbe) {
	pp.timer = nil
	p.free = append(p.free, pp)
}

func (p *Prober) onEcho(pkt *net.Packet) {
	pp, ok := p.pending[pkt.Flow]
	if !ok {
		return
	}
	delete(p.pending, pkt.Flow)
	pp.timer.Cancel()
	now := p.Mon.Net.Eng.Now()
	rtt := now - pkt.EchoSent
	p.Mon.OnProbeResult(pp.dstLeaf, pp.path, false, pkt.EchoCE, rtt)
	// Remember the best (lowest-RTT) probed path for the extra probe.
	best := p.prevBest[pp.dstLeaf]
	if best < 0 || p.Mon.State(pp.dstLeaf, pp.path).RTT() <= p.Mon.State(pp.dstLeaf, best).RTT() {
		p.prevBest[pp.dstLeaf] = pp.path
	}
	p.release(pp)
}
