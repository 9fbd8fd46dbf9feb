package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// HulaParams tunes the HULA reproduction.
type HulaParams struct {
	// ProbeInterval is how often the best-path tables refresh (HULA floods
	// utilization probes on this period).
	ProbeInterval sim.Time
	// FlowletTimeout opens a new flowlet.
	FlowletTimeout sim.Time
}

// DefaultHulaParams returns the settings from [25].
func DefaultHulaParams() HulaParams {
	return HulaParams{
		ProbeInterval:  200 * sim.Microsecond,
		FlowletTimeout: 150 * sim.Microsecond,
	}
}

// Hula reproduces HULA [25]: switches keep only the current best path (and
// its utilization) toward each destination ToR, refreshed by periodic
// utilization probes, and pin flowlets to it. This implementation refreshes
// the tables directly from the fabric ports' DRE estimators once per probe
// interval — probe propagation is idealized to one interval of staleness,
// and probe bandwidth (a few Mbps) is not charged. Unlike CONGA there is no
// per-path table: only the argmin survives, which is HULA's scalability
// trade-off.
type Hula struct {
	Net    *net.Network
	Leaf   int
	Rng    *sim.RNG
	Params HulaParams

	bestPath []int // per destination leaf
	flowlets flowletTable
}

// InstallHula sets up HULA on every leaf switch. It arms the utilization
// estimators of every leaf uplink and spine downlink before any traffic;
// the per-leaf instances share each spine downlink's estimator. Each leaf
// sweeps its flowlet table every 100 ms, as LetFlow and CONGA do.
func InstallHula(nw *net.Network, rng *sim.RNG, p HulaParams) []*Hula {
	for l := range nw.Leaves {
		for q := 0; q < nw.NPaths(); q++ {
			nw.Leaves[l].Uplink(q).Utilization()
			nw.DownlinkPort(q, l).Utilization()
		}
	}
	out := make([]*Hula, nw.Cfg.Leaves)
	for l := range nw.Leaves {
		h := &Hula{
			Net: nw, Leaf: l, Rng: rng, Params: p,
			bestPath: make([]int, nw.Cfg.Leaves),
		}
		for d := range h.bestPath {
			h.bestPath[d] = -1
		}
		nw.Leaves[l].Balancer = h
		h.refresh()
		h.flowlets.sweep(nw.Eng, p.FlowletTimeout)
		out[l] = h
	}
	return out
}

// refresh recomputes the best path toward every destination leaf from the
// current port utilizations, then re-arms itself.
func (h *Hula) refresh() {
	now := h.Net.Eng.Now()
	sw := h.Net.Leaves[h.Leaf]
	for d := 0; d < h.Net.Cfg.Leaves; d++ {
		if d == h.Leaf {
			continue
		}
		paths := h.Net.AvailablePaths(h.Leaf, d)
		best, bestUtil := -1, 0.0
		for _, p := range paths {
			up := linkUtil(sw.Uplink(p), now)
			down := linkUtil(h.Net.DownlinkPort(p, d), now)
			u := up
			if down > u {
				u = down
			}
			if best < 0 || u < bestUtil {
				best, bestUtil = p, u
			}
		}
		h.bestPath[d] = best
	}
	h.Net.Eng.ScheduleKind(h.Params.ProbeInterval, sim.KindTimer, h.refresh)
}

// linkUtil returns a port's estimated utilization in [0, ~1+]. A cut link
// reads as full without touching its estimator.
func linkUtil(port *net.Port, now sim.Time) float64 {
	if port.Down() {
		return 1
	}
	return port.Utilization().RateBps(now) / float64(port.RateBps())
}

// SelectUplink implements net.SwitchBalancer.
func (h *Hula) SelectUplink(pkt *net.Packet, dstLeaf int) int {
	paths := h.Net.AvailablePaths(h.Leaf, dstLeaf)
	if len(paths) == 0 {
		return 0
	}
	e, fresh := h.flowlets.lookup(pkt.Flow, h.Net.Eng.Now(), h.Params.FlowletTimeout, paths)
	if fresh {
		if best := h.bestPath[dstLeaf]; best >= 0 && contains(paths, best) {
			e.path = best
		} else {
			e.path = paths[h.Rng.Intn(len(paths))]
		}
	}
	return e.path
}

// OnDepart implements net.SwitchBalancer.
func (h *Hula) OnDepart(*net.Packet, int) {}

// OnArrive implements net.SwitchBalancer.
func (h *Hula) OnArrive(*net.Packet, int) {}

// ensure interface compliance for host-side no-op pairing.
var _ net.SwitchBalancer = (*Hula)(nil)
var _ transport.Balancer = (*EdgeFlowlet)(nil)
