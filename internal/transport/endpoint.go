package transport

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

// Transport owns one Endpoint per host and the global flow registry.
type Transport struct {
	Net  *net.Network
	Eng  *sim.Engine
	Opts Options

	Endpoints []*Endpoint

	// OnFlowDone, if set, is called once for each logical flow as it
	// completes (see logical.go); never for a hidden member.
	OnFlowDone func(*Flow)

	nextFlowID uint64
	active     map[uint64]*Flow
	finished   int

	// Flow IDs are dense, assigned by open from 1 upwards, so the per-packet
	// lookups index by ID: flows[id] is flow id's sender state while it
	// runs (nil once it finishes or is cancelled) and rcv[id] its receiver
	// state, kept for the whole run since duplicates may still arrive.
	// stray holds receiver state that has no slot there (see receiver).
	flows []*Flow
	rcv   []*rcvFlow
	stray map[strayKey]*rcvFlow

	// Raw loss counters: plain adds on their (rare) paths, always on, and
	// read by the metric probes.
	Retransmits uint64
	Timeouts    uint64

	// fctRing holds the most recent completed-flow FCTs in milliseconds
	// for the flight ring's tail-latency probe. nil (one predictable branch
	// in finish) unless DeclareMetrics armed it.
	fctRing    []float64
	fctRingPos int
	fctRingLen int
	fctScratch []float64

	// RepFlow accounting (see logical.go); zero unless Opts.ReplicateBelow
	// is set.
	RepFlowsStarted uint64 // replicated logical flows opened
	ReplicaWins     uint64 // races won by the replica copy
	FlowsCancelled  uint64 // losing copies aborted by cancel
	RedundantBytes  uint64 // payload bytes the losing copies had sent

	// Report histograms; nil (one nil check each) unless DeclareMetrics
	// armed them.
	cwndHist  *telemetry.Histogram
	alphaHist *telemetry.Histogram
}

// New wires an endpoint onto every host. balFor supplies the per-host
// balancer (hosts under the same leaf may share state behind the interface,
// as Hermes' rack-level probing does).
func New(nw *net.Network, opts Options, balFor func(h *net.Host) Balancer) *Transport {
	if opts.Protocol == Timely && opts.Timely.THigh == 0 {
		opts.Timely = DefaultTimelyParams(nw.ApproxBaseRTT(), nw.Cfg.HostRateBps)
	}
	tr := &Transport{Net: nw, Eng: nw.Eng, Opts: opts, active: map[uint64]*Flow{},
		flows: []*Flow{nil}, rcv: []*rcvFlow{nil}}
	for _, h := range nw.Hosts {
		ep := &Endpoint{tr: tr, host: h, bal: balFor(h)}
		h.Handle(net.Data, ep.onData)
		h.Handle(net.Ack, ep.onAck)
		tr.Endpoints = append(tr.Endpoints, ep)
	}
	return tr
}

// open starts one transport flow of size bytes from src to dst, a hidden
// member of g unless g is nil, and begins sending at once.
func (tr *Transport) open(src, dst int, size int64, g *group) *Flow {
	tr.nextFlowID++
	ep := tr.Endpoints[src]
	f := &Flow{
		ID:       tr.nextFlowID,
		Src:      src,
		Dst:      dst,
		SrcLeaf:  tr.Net.LeafOf(src),
		DstLeaf:  tr.Net.LeafOf(dst),
		Size:     size,
		StartAt:  tr.Eng.Now(),
		CurPath:  net.PathAny,
		Hidden:   g != nil,
		grp:      g,
		cwnd:     float64(initCwndPkts * net.MSS),
		ssthresh: 1 << 30,
		alphaSeq: 0,
		cwrSeq:   -1,
		dre:      net.NewDRE(0),
		ep:       ep,
	}
	tr.flows = append(tr.flows, f)
	tr.rcv = append(tr.rcv, nil)
	tr.active[f.ID] = f
	ep.bal.OnFlowStart(f)
	f.trySend()
	return f
}

// ActiveFlows returns the running transport flows, hidden members included
// (map shared; read-only).
func (tr *Transport) ActiveFlows() map[uint64]*Flow { return tr.active }

// ActiveCount returns the number of running transport flows.
func (tr *Transport) ActiveCount() int { return len(tr.active) }

// FinishedCount returns the number of completed transport flows.
func (tr *Transport) FinishedCount() int { return tr.finished }

// Endpoint is the per-host TCP stack instance.
type Endpoint struct {
	tr   *Transport
	host *net.Host
	bal  Balancer
}

// Balancer returns the host's balancer (exposed for tests and ablation).
func (ep *Endpoint) Balancer() Balancer { return ep.bal }

// SetBalancer swaps the host's balancer mid-run — the steering half of a
// what-if fork: replay a checkpointed run to its capture instant, then hand
// every endpoint a different scheme's balancer. In-flight flows keep their
// window and path state; the new balancer simply starts receiving their
// SelectPath/OnAck callbacks (schemes assign path state lazily, so a
// mid-life adoption is indistinguishable from a fresh flow to them).
func (ep *Endpoint) SetBalancer(b Balancer) { ep.bal = b }

// Host returns the attached host.
func (ep *Endpoint) Host() *net.Host { return ep.host }

func (ep *Endpoint) String() string {
	return fmt.Sprintf("endpoint(host=%d)", ep.host.ID)
}
