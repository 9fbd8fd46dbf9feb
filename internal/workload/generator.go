package workload

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Generator produces an open-loop Poisson flow arrival process: sizes from
// the configured CDF, sources uniform over hosts, destinations uniform over
// hosts under a *different* leaf (the paper's generator, after ref [8]).
type Generator struct {
	Net  *net.Network
	Tr   *transport.Transport
	Rng  *sim.RNG
	Dist *CDF

	// Load is the offered load as a fraction of the fabric bisection
	// bandwidth (0..1].
	Load float64
	// BaseBisectionBps, when positive, overrides the bisection capacity the
	// load is normalized to. The paper normalizes load to the *intact*
	// fabric even in asymmetric and failure runs (§5.3.2-5.3.3).
	BaseBisectionBps int64
	// MaxFlows stops generation after this many arrivals.
	MaxFlows int
	// StartFlowFn, if set, replaces Transport.StartFlow for each arrival
	// and calls it itself: a point to observe or time each flow start, as
	// bench/layers times StartFlow. How a flow is carried is set by the
	// transport's Options, not here.
	StartFlowFn func(src, dst int, size int64)

	started   int
	meanBytes float64
	interMean float64 // mean inter-arrival in ns
}

// Start schedules the first arrival. It must be called once, before the
// engine runs.
func (g *Generator) Start() {
	g.meanBytes = g.Dist.Mean()
	bisection := float64(g.Net.BisectionBps()) // bits/s
	if g.BaseBisectionBps > 0 {
		bisection = float64(g.BaseBisectionBps)
	}
	flowsPerSec := g.Load * bisection / (g.meanBytes * 8)
	g.interMean = 1e9 / flowsPerSec
	g.Net.Eng.ScheduleKind(g.Rng.Exp(g.interMean), sim.KindArrival, g.arrival)
}

// Started returns the number of flows generated so far.
func (g *Generator) Started() int { return g.started }

func (g *Generator) arrival() {
	if g.started >= g.MaxFlows {
		return
	}
	src, dst := g.pickPair()
	size := g.Dist.Sample(g.Rng)
	if g.StartFlowFn != nil {
		g.StartFlowFn(src, dst, size)
	} else {
		g.Tr.StartFlow(src, dst, size)
	}
	g.started++
	if g.started < g.MaxFlows {
		g.Net.Eng.ScheduleKind(g.Rng.Exp(g.interMean), sim.KindArrival, g.arrival)
	}
}

// pickPair draws a uniform source host and a uniform destination host under
// a different leaf.
func (g *Generator) pickPair() (src, dst int) {
	n := len(g.Net.Hosts)
	src = g.Rng.Intn(n)
	srcLeaf := g.Net.LeafOf(src)
	hpl := g.Net.Cfg.HostsPerLeaf
	// Choose among hosts not under srcLeaf.
	k := g.Rng.Intn(n - hpl)
	if k >= srcLeaf*hpl {
		k += hpl
	}
	return src, k
}
