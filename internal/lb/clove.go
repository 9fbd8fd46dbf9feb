package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// CloveParams tunes CLOVE-ECN's weight adaptation.
type CloveParams struct {
	// FlowletTimeout is the inactivity gap that opens a new flowlet
	// (150 us in the paper's simulations, 800 us on the 1 Gbps testbed).
	FlowletTimeout sim.Time
	// Beta is the multiplicative weight decrease applied to a path when an
	// ECN-marked ACK arrives for it.
	Beta float64
	// Recover is the additive pull toward uniform weights applied on every
	// unmarked ACK, restoring weight to paths that have drained.
	Recover float64
}

// DefaultCloveParams returns the simulation settings.
func DefaultCloveParams() CloveParams {
	return CloveParams{
		FlowletTimeout: 150 * sim.Microsecond,
		Beta:           0.06,
		Recover:        0.002,
	}
}

// Clove implements CLOVE-ECN [24]: an edge-based scheme that sprays
// flowlets with per-path weights learned purely from piggybacked ECN echoes
// — congestion-aware but limited to the visibility of its own ACK stream,
// which is the deficiency Table 2 and §5 highlight.
type Clove struct {
	transport.BaseBalancer
	Net    *net.Network
	Rng    *sim.RNG
	Params CloveParams

	perDst   map[int]*cloveDst
	flowlets flowletTable
}

type cloveDst struct {
	paths   []int
	weight  []float64
	pathIdx map[int]int // path id -> slice index
}

// Name implements transport.Balancer.
func (c *Clove) Name() string { return "CLOVE-ECN" }

func (c *Clove) dst(srcLeaf, dstLeaf int) *cloveDst {
	if c.perDst == nil {
		c.perDst = map[int]*cloveDst{}
	}
	d := c.perDst[dstLeaf]
	if d == nil {
		paths := c.Net.AvailablePaths(srcLeaf, dstLeaf)
		d = &cloveDst{paths: paths, pathIdx: map[int]int{}}
		d.weight = make([]float64, len(paths))
		for i, p := range paths {
			d.weight[i] = 1 / float64(len(paths))
			d.pathIdx[p] = i
		}
		c.perDst[dstLeaf] = d
	}
	return d
}

// SelectPath implements transport.Balancer: weighted flowlet spraying.
func (c *Clove) SelectPath(f *transport.Flow) int {
	d := c.dst(f.SrcLeaf, f.DstLeaf)
	if len(d.paths) == 0 {
		return net.PathAny
	}
	e, fresh := c.flowlets.lookup(f.ID, c.Net.Eng.Now(), c.Params.FlowletTimeout, d.paths)
	if fresh {
		e.path = d.paths[c.weightedPick(d)]
	}
	return e.path
}

// weightedPick draws a path index proportionally to the current weights.
func (c *Clove) weightedPick(d *cloveDst) int {
	var total float64
	for _, w := range d.weight {
		total += w
	}
	u := c.Rng.Float64() * total
	for i, w := range d.weight {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(d.weight) - 1
}

// OnAck implements transport.Balancer: ECN echoes shift weight away from
// marked paths; unmarked ACKs slowly restore uniformity.
func (c *Clove) OnAck(f *transport.Flow, ev transport.AckEvent) {
	d := c.dst(f.SrcLeaf, f.DstLeaf)
	i, ok := d.pathIdx[ev.Path]
	if !ok || len(d.paths) < 2 {
		return
	}
	if ev.ECE {
		moved := d.weight[i] * c.Params.Beta
		d.weight[i] -= moved
		share := moved / float64(len(d.paths)-1)
		for j := range d.weight {
			if j != i {
				d.weight[j] += share
			}
		}
	} else {
		uniform := 1 / float64(len(d.paths))
		d.weight[i] += c.Params.Recover * (uniform - d.weight[i])
		// Renormalize to keep the total at 1.
		var total float64
		for _, w := range d.weight {
			total += w
		}
		for j := range d.weight {
			d.weight[j] /= total
		}
	}
}

// OnFlowDone implements transport.Balancer.
func (c *Clove) OnFlowDone(f *transport.Flow) { delete(c.flowlets.m, f.ID) }

// Weights exposes the current weight vector toward a destination leaf (for
// tests).
func (c *Clove) Weights(srcLeaf, dstLeaf int) []float64 {
	d := c.dst(srcLeaf, dstLeaf)
	out := make([]float64, len(d.weight))
	copy(out, d.weight)
	return out
}
