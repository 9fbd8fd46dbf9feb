package transport

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

const (
	report = telemetry.SinkReport
	flight = telemetry.SinkFlight
)

// fctWindow bounds the recent-FCT ring behind the p99 probe: large enough
// that a sample interval's completions never dominate it, small enough that
// the probe's sort stays cheap.
const fctWindow = 512

// transportMetrics declares the transport's metrics. All are pull reads of
// state the transport keeps anyway; the per-packet path is untouched.
var transportMetrics = []telemetry.Probe[*Transport]{
	{Metric: telemetry.Metric{Name: "transport.flows_active", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(len(tr.active)) }},
	{Metric: telemetry.Metric{Name: "transport.flows_finished", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.finished) }},
	// Sent but unacknowledged bytes over every active flow.
	{Metric: telemetry.Metric{Name: "transport.inflight_bytes", Sinks: flight},
		Read: func(tr *Transport) float64 {
			var t int64
			for _, f := range tr.active {
				t += f.sndNxt - f.cumAck
			}
			return float64(t)
		}},
	{Metric: telemetry.Metric{Name: "transport.retransmits_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.Retransmits) }},
	{Metric: telemetry.Metric{Name: "transport.timeouts_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.Timeouts) }},
	// The p99 of the last fctWindow completed flows' FCTs.
	{Metric: telemetry.Metric{Name: "transport.fct_p99_ms", Sinks: flight},
		Read: (*Transport).fctP99},
	{Metric: telemetry.Metric{Name: "transport.flows_started", Sinks: report},
		Read: func(tr *Transport) float64 { return float64(tr.nextFlowID) }},
}

// repFlowMetrics declares the RepFlow replication counters (see logical.go).
// Only RepFlow runs declare them, so no other scheme's report gains the keys.
var repFlowMetrics = []telemetry.Probe[*Transport]{
	{Metric: telemetry.Metric{Name: "repflow.replicated_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.RepFlowsStarted) }},
	{Metric: telemetry.Metric{Name: "repflow.replica_wins_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.ReplicaWins) }},
	{Metric: telemetry.Metric{Name: "repflow.cancelled_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.FlowsCancelled) }},
	{Metric: telemetry.Metric{Name: "repflow.redundant_bytes_total", Sinks: report | flight},
		Read: func(tr *Transport) float64 { return float64(tr.RedundantBytes) }},
}

// DeclareMetrics declares the transport's metrics on pl, plus the report's
// push histograms: window samples in bytes (taken at every RTO and at flow
// completion) and the per-flow DCTCP alpha (smoothed ECN-marked fraction)
// at completion.
func (tr *Transport) DeclareMetrics(pl telemetry.Plane) {
	if pl.Flight != nil {
		tr.fctRing = make([]float64, fctWindow)
		tr.fctScratch = make([]float64, 0, fctWindow)
	}
	telemetry.DeclareAll(pl, tr, transportMetrics)
	tr.cwndHist = pl.Histogram("transport.cwnd_bytes",
		[]float64{1_500, 15_000, 75_000, 150_000, 750_000, 1_500_000})
	tr.alphaHist = pl.Histogram("transport.flow_ecn_fraction",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1})
}

// DeclareRepFlowMetrics declares the replication counters on pl.
func (tr *Transport) DeclareRepFlowMetrics(pl telemetry.Plane) {
	telemetry.DeclareAll(pl, tr, repFlowMetrics)
}

// fctP99 returns the p99 of the FCT ring in milliseconds (0 when empty).
func (tr *Transport) fctP99() float64 {
	n := tr.fctRingLen
	if n == 0 {
		return 0
	}
	tr.fctScratch = append(tr.fctScratch[:0], tr.fctRing[:n]...)
	sort.Float64s(tr.fctScratch)
	i := (99*n + 99) / 100 // ceil(0.99 n)
	if i > n {
		i = n
	}
	return tr.fctScratch[i-1]
}

// recordFCT appends one completed logical flow's FCT to the ring, in
// milliseconds; a no-op unless DeclareMetrics armed the ring.
func (tr *Transport) recordFCT(fct sim.Time) {
	if tr.fctRing == nil {
		return
	}
	tr.fctRing[tr.fctRingPos] = float64(fct) / 1e6
	tr.fctRingPos++
	if tr.fctRingPos == len(tr.fctRing) {
		tr.fctRingPos = 0
	}
	if tr.fctRingLen < len(tr.fctRing) {
		tr.fctRingLen++
	}
}
