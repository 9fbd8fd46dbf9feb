package trace

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/sim"
)

// FCT attribution: decompose each flow's completion time into
//
//	FCT = base + queueing + RTO stall + reroute gap
//
// where base is the ideal unloaded FCT (one base RTT plus the flow's
// serialization time at the access link), stall is the measured idle time
// ended by RTO fires, and the reroute gap is the dead time after each path
// change before the first byte is acknowledged on the new path (in excess of
// one base RTT, which re-placement legitimately costs). The components are
// clamped in sequence — stall, then base, then reroute, queueing as the
// remainder — so they always sum exactly to the FCT and are non-negative.
// Stall is measured (not inferred), so it is clamped first; queueing absorbs
// estimation error, which is the honest place for it since it is the one
// component we do not measure end-to-end per flow.

// FlowBreakdown is the attribution of one flow's completion time.
type FlowBreakdown struct {
	Flow     uint64
	Size     int64
	Start    sim.Time
	End      sim.Time
	FCT      sim.Time
	Finished bool

	Moves    int
	Retx     int
	Timeouts int
	Drops    int
	EcnMarks int

	// The four components; they sum exactly to FCT.
	BaseNs    sim.Time
	QueueNs   sim.Time
	StallNs   sim.Time
	RerouteNs sim.Time

	// SumPktQueueNs is the unclamped per-packet queue-delay sum echoed by
	// ACKs (a cross-check: many queued packets overlap in time, so this can
	// legitimately exceed QueueNs).
	SumPktQueueNs sim.Time

	// Paths visited, in order, and the decision-log reasons for entering
	// them (reasons only for Hermes traces with a decision log).
	Paths   []int
	Reasons []string
}

// Share returns component/FCT, guarding the zero-FCT corner.
func (b FlowBreakdown) Share(c sim.Time) float64 {
	if b.FCT <= 0 {
		return 0
	}
	return float64(c) / float64(b.FCT)
}

// Attribution computes per-flow breakdowns for every flow with recorded
// spans, in flow-ID order. Calibration (base RTT, host rate) comes from the
// recorder's Meta; with a zero Meta the base component is 0 and everything
// lands in queueing/stall.
func (r *Recorder) Attribution() []FlowBreakdown {
	type flowMeta struct {
		size       int64
		start, end sim.Time
		started    bool
		finished   bool
	}
	fm := map[uint64]*flowMeta{}
	get := func(f uint64) *flowMeta {
		m, ok := fm[f]
		if !ok {
			m = &flowMeta{}
			fm[f] = m
		}
		return m
	}
	for _, e := range r.Events.All() {
		switch e.Kind {
		case FlowStart:
			m := get(e.Flow)
			m.started = true
			m.start = e.At
			m.size = e.Size
		case FlowDone:
			m := get(e.Flow)
			m.finished = true
			m.end = e.At
		}
	}

	spans := map[uint64][]Span{}
	order := []uint64{}
	for _, s := range r.Spans.All() {
		if _, ok := spans[s.Flow]; !ok {
			order = append(order, s.Flow)
		}
		spans[s.Flow] = append(spans[s.Flow], s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	baseRTT := sim.Time(r.Meta.BaseRTTNs)
	out := make([]FlowBreakdown, 0, len(order))
	for _, f := range order {
		ss := spans[f]
		m := get(f)
		b := FlowBreakdown{Flow: f, Size: m.size, Moves: len(ss) - 1}
		if m.started {
			b.Start = m.start
		} else {
			b.Start = ss[0].Start
		}
		if m.finished {
			b.End = m.end
			b.Finished = true
		} else {
			b.End = ss[len(ss)-1].End
		}
		b.FCT = b.End - b.Start
		if b.FCT < 0 {
			b.FCT = 0
		}

		var stall, reroute, pktQueue sim.Time
		for i, sp := range ss {
			stall += sp.StallNs
			pktQueue += sp.QueueNs
			b.Retx += sp.Retx
			b.Timeouts += sp.Timeouts
			b.Drops += sp.Drops
			b.EcnMarks += sp.EcnMarks
			b.Paths = append(b.Paths, sp.Path)
			if sp.Reason != "" {
				b.Reasons = append(b.Reasons, sp.Reason)
			}
			if i > 0 && sp.FirstAck > 0 {
				if g := sp.FirstAck - sp.Start - baseRTT; g > 0 {
					reroute += g
				}
			}
		}
		b.SumPktQueueNs = pktQueue

		base := baseRTT
		if r.Meta.HostRateBps > 0 {
			base += sim.Time(m.size * 8 * int64(sim.Second) / r.Meta.HostRateBps)
		}

		// Sequential clamping: components sum exactly to FCT.
		if stall > b.FCT {
			stall = b.FCT
		}
		rem := b.FCT - stall
		if base > rem {
			base = rem
		}
		rem -= base
		if reroute > rem {
			reroute = rem
		}
		b.StallNs = stall
		b.BaseNs = base
		b.RerouteNs = reroute
		b.QueueNs = rem - reroute
		out = append(out, b)
	}
	return out
}

// SlowestFlows returns the n highest-FCT breakdowns, slowest first (ties by
// flow ID for determinism).
func SlowestFlows(flows []FlowBreakdown, n int) []FlowBreakdown {
	out := make([]FlowBreakdown, len(flows))
	copy(out, flows)
	sort.Slice(out, func(i, j int) bool {
		if out[i].FCT != out[j].FCT {
			return out[i].FCT > out[j].FCT
		}
		return out[i].Flow < out[j].Flow
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TailShares aggregates attribution over the flows at or above a percentile
// cutoff: what fraction of the tail's total completion time each component
// explains.
type TailShares struct {
	// N is the number of tail flows aggregated; Unfinished how many of them
	// never completed.
	N          int
	Unfinished int
	// CutoffNs is the FCT at the requested percentile.
	CutoffNs sim.Time
	// MeanFCTNs is the tail flows' mean completion time.
	MeanFCTNs sim.Time

	BaseShare    float64
	QueueShare   float64
	StallShare   float64
	RerouteShare float64
}

// TailAttribution aggregates the breakdowns of the flows whose FCT is at or
// above the pct percentile (pct in [0,1); 0 aggregates every flow). Shares
// are ratios of summed components to summed FCT, so long flows weigh more —
// the question answered is "where did the tail's time go", not "what did the
// average flow experience".
func TailAttribution(flows []FlowBreakdown, pct float64) TailShares {
	var ts TailShares
	if len(flows) == 0 {
		return ts
	}
	fcts := make([]sim.Time, len(flows))
	for i, b := range flows {
		fcts[i] = b.FCT
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	if pct > 0 {
		idx := int(pct * float64(len(fcts)))
		if idx >= len(fcts) {
			idx = len(fcts) - 1
		}
		ts.CutoffNs = fcts[idx]
	}

	var fct, base, queue, stall, reroute sim.Time
	for _, b := range flows {
		if b.FCT < ts.CutoffNs {
			continue
		}
		ts.N++
		if !b.Finished {
			ts.Unfinished++
		}
		fct += b.FCT
		base += b.BaseNs
		queue += b.QueueNs
		stall += b.StallNs
		reroute += b.RerouteNs
	}
	if ts.N > 0 {
		ts.MeanFCTNs = fct / sim.Time(ts.N)
	}
	if fct > 0 {
		ts.BaseShare = float64(base) / float64(fct)
		ts.QueueShare = float64(queue) / float64(fct)
		ts.StallShare = float64(stall) / float64(fct)
		ts.RerouteShare = float64(reroute) / float64(fct)
	}
	return ts
}
