package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// CongaParams tunes the CONGA reproduction.
type CongaParams struct {
	// FlowletTimeout opens a new flowlet after this inactivity gap. The
	// paper tunes 150 us for DCTCP traffic (§5.1) and sweeps 50/150/500 us
	// in Fig 15.
	FlowletTimeout sim.Time
	// AgingTime invalidates remote congestion entries that have not been
	// refreshed — 10 ms as suggested by [5]. Stale entries read as zero,
	// which is precisely what produces the Fig 4 hidden-terminal flipping.
	AgingTime sim.Time
	// QuantLevels is the congestion metric resolution (3 bits => 8).
	QuantLevels int
}

// DefaultCongaParams returns the §5.1 settings.
func DefaultCongaParams() CongaParams {
	return CongaParams{
		FlowletTimeout: 150 * sim.Microsecond,
		AgingTime:      10 * sim.Millisecond,
		QuantLevels:    8,
	}
}

// Conga reproduces CONGA [5] at one leaf switch: leaf-to-leaf congestion
// feedback built from per-port DRE utilization estimators, piggybacked on
// reverse traffic, with flowlet-granularity path choice minimizing the
// max of local and remote congestion along each uplink.
type Conga struct {
	Net    *net.Network
	Leaf   int
	Rng    *sim.RNG
	Params CongaParams

	flowlets flowletTable
	// fromLeaf[src][path]: congestion measured here for traffic arriving
	// from leaf src over path (the destination-side table). Entries age just
	// like the sender-side table: with no arrivals, a path reads as empty —
	// the stale-information behaviour behind Fig 4.
	fromLeaf [][]congaEntry
	// toLeaf[dst][path]: congestion of the path toward leaf dst, learned
	// via feedback; ages to zero.
	toLeaf [][]congaEntry
	// fbIdx[dst] rotates which path's measurement is fed back next.
	fbIdx []int
}

type congaEntry struct {
	metric uint8
	at     sim.Time
	valid  bool
}

// InstallConga sets up CONGA on every leaf switch and hooks the DRE
// stamping on all fabric ports (leaf uplinks and spine downlinks), matching
// the in-network metric collection of the real system.
func InstallConga(nw *net.Network, rng *sim.RNG, p CongaParams) []*Conga {
	out := make([]*Conga, nw.Cfg.Leaves)
	for l := range nw.Leaves {
		out[l] = NewConga(nw, l, rng, p)
	}
	// Spine downlink stamping: the packet's CE field accumulates the max
	// utilization over both fabric hops.
	for l := 0; l < nw.Cfg.Leaves; l++ {
		for q := 0; q < nw.NPaths(); q++ {
			port := nw.DownlinkPort(q, l)
			port.OnTx = stampCE(nw, port, p.QuantLevels)
		}
	}
	return out
}

// NewConga builds and installs the per-leaf instance, including uplink DRE
// stamping.
func NewConga(nw *net.Network, leaf int, rng *sim.RNG, p CongaParams) *Conga {
	c := &Conga{Net: nw, Leaf: leaf, Rng: rng, Params: p}
	L, S := nw.Cfg.Leaves, nw.NPaths()
	c.fromLeaf = make([][]congaEntry, L)
	c.toLeaf = make([][]congaEntry, L)
	c.fbIdx = make([]int, L)
	for i := 0; i < L; i++ {
		c.fromLeaf[i] = make([]congaEntry, S)
		c.toLeaf[i] = make([]congaEntry, S)
	}
	sw := nw.Leaves[leaf]
	sw.Balancer = c
	for s := 0; s < S; s++ {
		port := sw.Uplink(s)
		port.OnTx = stampCE(nw, port, p.QuantLevels)
	}
	c.flowlets.sweep(nw.Eng, p.FlowletTimeout)
	return c
}

// stampCE arms the port's utilization estimator and returns the OnTx hook
// that folds its quantized reading into the packet's CE field.
func stampCE(nw *net.Network, port *net.Port, levels int) func(*net.Packet) {
	util := port.Utilization()
	return func(pkt *net.Packet) {
		q := util.Quantize(nw.Eng.Now(), port.RateBps(), levels)
		if q > pkt.CongaCE {
			pkt.CongaCE = q
		}
	}
}

// remote returns the (aged) remote congestion metric toward dstLeaf over
// path p: entries older than AgingTime read as zero — CONGA assumes an
// unreported path is idle.
func (c *Conga) remote(dstLeaf, p int, now sim.Time) uint8 {
	e := c.toLeaf[dstLeaf][p]
	if !e.valid || now-e.at > c.Params.AgingTime {
		return 0
	}
	return e.metric
}

// SelectUplink implements net.SwitchBalancer: flowlet-granularity argmin of
// max(local DRE, remote metric).
func (c *Conga) SelectUplink(pkt *net.Packet, dstLeaf int) int {
	paths := c.Net.AvailablePaths(c.Leaf, dstLeaf)
	if len(paths) == 0 {
		return 0
	}
	now := c.Net.Eng.Now()
	e, fresh := c.flowlets.lookup(pkt.Flow, now, c.Params.FlowletTimeout, paths)
	if fresh {
		e.path = c.bestPath(paths, dstLeaf, now)
	}
	return e.path
}

func (c *Conga) bestPath(paths []int, dstLeaf int, now sim.Time) int {
	sw := c.Net.Leaves[c.Leaf]
	best := -1
	var bestMetric uint8
	nBest := 0
	for _, p := range paths {
		up := sw.Uplink(p)
		m := up.Utilization().Quantize(now, up.RateBps(), c.Params.QuantLevels)
		if r := c.remote(dstLeaf, p, now); r > m {
			m = r
		}
		switch {
		case best < 0 || m < bestMetric:
			best, bestMetric, nBest = p, m, 1
		case m == bestMetric:
			// Reservoir-sample among ties for unbiased random tie-break.
			nBest++
			if c.Rng.Intn(nBest) == 0 {
				best = p
			}
		}
	}
	return best
}

// OnDepart implements net.SwitchBalancer: reset the CE accumulator and
// piggyback one feedback entry about traffic we received from dstLeaf.
func (c *Conga) OnDepart(pkt *net.Packet, dstLeaf int) {
	pkt.CongaCE = 0
	s := c.fbIdx[dstLeaf] % c.Net.NPaths()
	c.fbIdx[dstLeaf]++
	pkt.FbValid = true
	pkt.FbPath = uint8(s)
	pkt.FbMetric = c.agedFrom(dstLeaf, s, c.Net.Eng.Now())
}

// agedFrom reads the destination-side measurement with aging applied.
func (c *Conga) agedFrom(srcLeaf, path int, now sim.Time) uint8 {
	e := c.fromLeaf[srcLeaf][path]
	if !e.valid || now-e.at > c.Params.AgingTime {
		return 0
	}
	return e.metric
}

// OnArrive implements net.SwitchBalancer: harvest the forward-path metric
// and apply any piggybacked feedback.
func (c *Conga) OnArrive(pkt *net.Packet, srcLeaf int) {
	if pkt.Path >= 0 && pkt.Path < c.Net.NPaths() {
		c.fromLeaf[srcLeaf][pkt.Path] = congaEntry{
			metric: pkt.CongaCE,
			at:     c.Net.Eng.Now(),
			valid:  true,
		}
	}
	if pkt.FbValid {
		c.toLeaf[srcLeaf][pkt.FbPath] = congaEntry{
			metric: pkt.FbMetric,
			at:     c.Net.Eng.Now(),
			valid:  true,
		}
	}
}
