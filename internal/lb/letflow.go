package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// LetFlow [14] is flowlet switching in its purest form: on every flowlet
// gap the leaf switch re-hashes the flow onto a uniformly random uplink.
// Balance emerges from flowlets elastically shrinking on congested paths.
// One instance serves one leaf switch.
type LetFlow struct {
	Net  *net.Network
	Leaf int
	Rng  *sim.RNG
	// Timeout is the flowlet inactivity gap (150 us in §5.1).
	Timeout sim.Time

	table flowletTable
}

// NewLetFlow builds the per-leaf instance and installs it on the switch.
func NewLetFlow(nw *net.Network, leaf int, rng *sim.RNG, timeout sim.Time) *LetFlow {
	l := &LetFlow{Net: nw, Leaf: leaf, Rng: rng, Timeout: timeout}
	nw.Leaves[leaf].Balancer = l
	l.table.sweep(nw.Eng, timeout)
	return l
}

// SelectUplink implements net.SwitchBalancer.
func (l *LetFlow) SelectUplink(pkt *net.Packet, dstLeaf int) int {
	paths := l.Net.AvailablePaths(l.Leaf, dstLeaf)
	if len(paths) == 0 {
		return 0
	}
	e, fresh := l.table.lookup(pkt.Flow, l.Net.Eng.Now(), l.Timeout, paths)
	if fresh {
		e.path = paths[l.Rng.Intn(len(paths))]
	}
	return e.path
}

// OnDepart implements net.SwitchBalancer.
func (l *LetFlow) OnDepart(*net.Packet, int) {}

// OnArrive implements net.SwitchBalancer.
func (l *LetFlow) OnArrive(*net.Packet, int) {}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// DRILL [16] makes a per-packet, purely local decision: compare the queue
// depth of two random uplinks and the previously best one, and send the
// packet to the shortest. It has no global awareness, which is why it
// suffers under asymmetry (§7).
type DRILL struct {
	Net  *net.Network
	Leaf int
	Rng  *sim.RNG

	lastBest map[int]int // per destination leaf
}

// NewDRILL builds the per-leaf instance and installs it on the switch.
func NewDRILL(nw *net.Network, leaf int, rng *sim.RNG) *DRILL {
	d := &DRILL{Net: nw, Leaf: leaf, Rng: rng, lastBest: map[int]int{}}
	nw.Leaves[leaf].Balancer = d
	return d
}

// SelectUplink implements net.SwitchBalancer.
func (d *DRILL) SelectUplink(pkt *net.Packet, dstLeaf int) int {
	paths := d.Net.AvailablePaths(d.Leaf, dstLeaf)
	switch len(paths) {
	case 0:
		return 0
	case 1:
		return paths[0]
	}
	sw := d.Net.Leaves[d.Leaf]
	a, b := d.Rng.TwoDistinct(len(paths))
	cands := []int{paths[a], paths[b]}
	if best, ok := d.lastBest[dstLeaf]; ok && contains(paths, best) {
		cands = append(cands, best)
	}
	best := cands[0]
	for _, p := range cands[1:] {
		if sw.Uplink(p).QueuedBytes() < sw.Uplink(best).QueuedBytes() {
			best = p
		}
	}
	d.lastBest[dstLeaf] = best
	return best
}

// OnDepart implements net.SwitchBalancer.
func (d *DRILL) OnDepart(*net.Packet, int) {}

// OnArrive implements net.SwitchBalancer.
func (d *DRILL) OnArrive(*net.Packet, int) {}
