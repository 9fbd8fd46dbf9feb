package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// EdgeFlowlet is the congestion-oblivious CLOVE variant the paper also
// evaluated (§5.1): flowlet switching at the end host with uniformly random
// path choice — LetFlow's logic moved to the edge. The paper reports
// CLOVE-ECN slightly ahead of Edge-Flowlet in most cases.
type EdgeFlowlet struct {
	transport.BaseBalancer
	Net *net.Network
	Rng *sim.RNG
	// Timeout is the flowlet inactivity gap.
	Timeout sim.Time

	flowlets flowletTable
}

// Name implements transport.Balancer.
func (e *EdgeFlowlet) Name() string { return "Edge-Flowlet" }

// SelectPath implements transport.Balancer.
func (e *EdgeFlowlet) SelectPath(f *transport.Flow) int {
	paths := e.Net.AvailablePaths(f.SrcLeaf, f.DstLeaf)
	if len(paths) == 0 {
		return net.PathAny
	}
	fe, fresh := e.flowlets.lookup(f.ID, e.Net.Eng.Now(), e.Timeout, paths)
	if fresh {
		fe.path = paths[e.Rng.Intn(len(paths))]
	}
	return fe.path
}

// OnFlowDone implements transport.Balancer.
func (e *EdgeFlowlet) OnFlowDone(f *transport.Flow) { delete(e.flowlets.m, f.ID) }
