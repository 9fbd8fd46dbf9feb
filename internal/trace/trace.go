// Package trace records per-flow load balancing timelines — placements,
// path changes, retransmissions, timeouts, ECN marks, drops and completions
// — by decorating any transport.Balancer, and aggregates them into
// path-residency spans: one span per placement→move interval annotated with
// bytes delivered, retransmissions, ECN marks and summed queue delay.
// Traces explain *why* a scheme produced its FCTs: e.g. counting how often
// CONGA's flowlets actually moved, which paths a Hermes flow visited before
// a blackhole verdict, or how much of a tail flow's completion time was RTO
// stall versus queueing (see Attribution).
package trace

import (
	"sort"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Kind labels a trace event.
type Kind string

// Event kinds.
const (
	FlowStart  Kind = "start"
	Placement  Kind = "place" // first path assignment
	PathChange Kind = "move"  // subsequent path changes
	Retransmit Kind = "retx"  // fast retransmit
	Timeout    Kind = "rto"   // retransmission timeout
	ECNMark    Kind = "ecn"   // the fabric ECN-marked a data packet
	Drop       Kind = "drop"  // the fabric dropped a data packet
	FlowDone   Kind = "done"
)

// Event is one timeline entry.
type Event struct {
	At   sim.Time `json:"at_ns"`
	Flow uint64   `json:"flow"`
	Kind Kind     `json:"kind"`
	Path int      `json:"path"`
	// Size carries the flow size on start/done events.
	Size int64 `json:"size,omitempty"`
	// Stall carries, on rto events, the idle time since the flow last made
	// cumulative-ACK progress — the stall the timeout ends.
	Stall sim.Time `json:"stall_ns,omitempty"`
}

// Span is one path-residency interval: the stretch of a flow's life between
// choosing a path and leaving it (or finishing). Spans carry the attribution
// payload the flat event list cannot: how much was delivered there, how much
// queueing the delivered packets saw, and how long the flow sat stalled.
type Span struct {
	Flow  uint64   `json:"flow"`
	Path  int      `json:"path"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`

	// Bytes is the payload newly acknowledged while on this path.
	Bytes int64 `json:"bytes_acked"`
	// FirstAck is when the first new byte was acknowledged on this path
	// (0 = none ever was — e.g. a blackholed placement).
	FirstAck sim.Time `json:"first_ack_ns,omitempty"`

	Retx     int `json:"retx,omitempty"`
	Timeouts int `json:"rto,omitempty"`
	// StallNs sums the idle gaps ended by this span's RTO fires (plus the
	// trailing gap for flows force-closed while stalled).
	StallNs sim.Time `json:"stall_ns,omitempty"`
	// EcnMarks counts delivered data packets whose ACK echoed CE.
	EcnMarks int `json:"ecn,omitempty"`
	// Drops counts fabric drops of this flow's packets during the span.
	Drops int `json:"drops,omitempty"`
	// QueueNs sums the forward-path queue delay echoed by every ACK received
	// during the span (a per-packet sum, not wall-clock time).
	QueueNs sim.Time `json:"queue_ns,omitempty"`

	// Reason is the Hermes decision-log reason the flow entered this path
	// ("fresh", "timeout", "failure", "congestion"); empty for other schemes
	// and for runs that keep no decision log.
	Reason string `json:"reason,omitempty"`
	// Final marks the span that ended with flow completion; a last span
	// without Final belongs to a flow force-closed at the simulation horizon.
	Final bool `json:"final,omitempty"`
}

// flowState is the recorder's live bookkeeping for one open flow.
type flowState struct {
	span         int // index into Spans, -1 when none is open
	path         int
	placed       bool
	size         int64
	start        sim.Time
	lastProgress sim.Time
}

// MaxEvents caps a trace: at most this many events, and as many spans.
const MaxEvents = 1_000_000

// Recorder accumulates events and spans; NewRecorder builds one. The zero
// Recorder's logs are nil, so it records nothing. It is not safe for
// concurrent use; the simulator is single-threaded.
type Recorder struct {
	// Events and Spans are the trace's logs, each capped at MaxEvents; a
	// record past the cap is only counted as dropped.
	Events *timeseries.Log[Event]
	Spans  *timeseries.Log[Span]

	// Decisions, when non-nil, is the run's Hermes decision log. A span
	// takes its reason from the placement or reroute logged for its flow,
	// path and instant as it opens, and the log's verdicts are the trace's
	// monitor track.
	Decisions *telemetry.AuditLog

	// Meta identifies the run and carries the calibration constants the
	// attribution needs (base RTT, access-link rate). Filled by the run
	// harness; a zero Meta is omitted from exports.
	Meta Meta

	// FlowHops holds the fabric's per-flow per-hop delay aggregates
	// (SetFlowHops; net.DelayAccount is the source).
	FlowHops []FlowHops

	// Flight, when non-nil, is the run's time-series flight recorder; the
	// Perfetto export renders its series as counter tracks and its
	// path-state transitions as instants.
	Flight *timeseries.Recorder

	open map[uint64]*flowState
}

// NewRecorder builds an empty trace that reads span reasons and verdicts
// from decisions (nil for none).
func NewRecorder(decisions *telemetry.AuditLog) *Recorder {
	return &Recorder{
		Events:    timeseries.NewLog[Event](MaxEvents),
		Spans:     timeseries.NewLog[Span](MaxEvents),
		Decisions: decisions,
	}
}

func (r *Recorder) state(flow uint64) *flowState {
	if r.open == nil {
		r.open = map[uint64]*flowState{}
	}
	st, ok := r.open[flow]
	if !ok {
		st = &flowState{span: -1}
		r.open[flow] = st
	}
	return st
}

// openSpan opens flow's residency span on path, stamped with the reason of
// the Hermes decision that put it there: the decision logged last, when it
// is for this flow, path and instant.
func (r *Recorder) openSpan(st *flowState, at sim.Time, flow uint64, path int) {
	sp := Span{Flow: flow, Path: path, Start: at}
	if n := r.Decisions.Len(); n > 0 {
		d := r.Decisions.All()[n-1]
		if (d.Kind == telemetry.AuditPlace || d.Kind == telemetry.AuditReroute) &&
			d.Flow == flow && d.ToPath == path && d.At == int64(at) {
			sp.Reason = d.Reason
		}
	}
	st.span = r.Spans.Add(sp)
}

func (r *Recorder) closeSpan(st *flowState, at sim.Time, final bool) {
	if st.span < 0 {
		return
	}
	sp := r.Spans.At(st.span)
	sp.End = at
	sp.Final = final
	st.span = -1
}

func (r *Recorder) noteStart(at sim.Time, flow uint64, size int64) {
	st := r.state(flow)
	st.size = size
	st.start = at
	st.lastProgress = at
	r.Events.Add(Event{At: at, Flow: flow, Kind: FlowStart, Size: size})
}

// notePath records the balancer's path choice, opening a new residency span
// when it differs from the current one.
func (r *Recorder) notePath(at sim.Time, flow uint64, path int) {
	st := r.state(flow)
	if st.placed && st.path == path {
		return
	}
	kind := Placement
	if st.placed {
		kind = PathChange
		r.closeSpan(st, at, false)
	}
	st.placed = true
	st.path = path
	r.Events.Add(Event{At: at, Flow: flow, Kind: kind, Path: path})
	r.openSpan(st, at, flow, path)
}

func (r *Recorder) noteAck(at sim.Time, flow uint64, ev transport.AckEvent) {
	st, ok := r.open[flow]
	if !ok {
		return
	}
	if st.span >= 0 {
		sp := r.Spans.At(st.span)
		sp.QueueNs += ev.QueueNs
		if ev.ECE {
			sp.EcnMarks++
		}
		if ev.NewlyAcked > 0 {
			sp.Bytes += ev.NewlyAcked
			if sp.FirstAck == 0 {
				sp.FirstAck = at
			}
		}
	}
	if ev.NewlyAcked > 0 {
		st.lastProgress = at
	}
}

func (r *Recorder) noteRetx(at sim.Time, flow uint64, path int) {
	r.Events.Add(Event{At: at, Flow: flow, Kind: Retransmit, Path: path})
	if st, ok := r.open[flow]; ok && st.span >= 0 {
		r.Spans.At(st.span).Retx++
	}
}

func (r *Recorder) noteTimeout(at sim.Time, flow uint64, path int) {
	st := r.state(flow)
	stall := at - st.lastProgress
	if stall < 0 {
		stall = 0
	}
	r.Events.Add(Event{At: at, Flow: flow, Kind: Timeout, Path: path, Stall: stall})
	if st.span >= 0 {
		sp := r.Spans.At(st.span)
		sp.Timeouts++
		sp.StallNs += stall
	}
	st.lastProgress = at
}

func (r *Recorder) noteDone(at sim.Time, flow uint64, size int64) {
	r.Events.Add(Event{At: at, Flow: flow, Kind: FlowDone, Size: size})
	if st, ok := r.open[flow]; ok {
		r.closeSpan(st, at, true)
		delete(r.open, flow)
	}
}

// NoteDrop records a fabric drop of one of flow's packets (fed by
// net.Network.SetTraceHooks).
func (r *Recorder) NoteDrop(at sim.Time, flow uint64, path int) {
	r.Events.Add(Event{At: at, Flow: flow, Kind: Drop, Path: path})
	if st, ok := r.open[flow]; ok && st.span >= 0 {
		r.Spans.At(st.span).Drops++
	}
}

// NoteMark records a fabric ECN mark on one of flow's packets. Mark events
// are fabric-side observations; the span's EcnMarks counter instead counts
// delivered marked packets (ACK echoes), so the two can differ when marked
// packets are dropped downstream.
func (r *Recorder) NoteMark(at sim.Time, flow uint64, path int) {
	r.Events.Add(Event{At: at, Flow: flow, Kind: ECNMark, Path: path})
}

// CloseOpenSpans force-closes the spans of unfinished flows at the
// simulation horizon (deterministically, in flow order). A span that was
// mid-stall — it has timeouts and no progress since the last one — is
// charged the trailing idle gap, mirroring the unfinished-flow FCT
// accounting.
func (r *Recorder) CloseOpenSpans(at sim.Time) {
	flows := make([]uint64, 0, len(r.open))
	for f, st := range r.open {
		if st.span >= 0 {
			flows = append(flows, f)
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		st := r.open[f]
		sp := r.Spans.At(st.span)
		if sp.Timeouts > 0 && at > st.lastProgress {
			sp.StallNs += at - st.lastProgress
		}
		r.closeSpan(st, at, false)
	}
}

// Wrap decorates a balancer so that every decision and transport signal is
// recorded. eng supplies timestamps.
func Wrap(inner transport.Balancer, rec *Recorder, eng *sim.Engine) transport.Balancer {
	return &tracer{inner: inner, rec: rec, eng: eng}
}

type tracer struct {
	inner transport.Balancer
	rec   *Recorder
	eng   *sim.Engine
}

func (t *tracer) Name() string { return t.inner.Name() }

func (t *tracer) SelectPath(f *transport.Flow) int {
	p := t.inner.SelectPath(f)
	t.rec.notePath(t.eng.Now(), f.ID, p)
	return p
}

func (t *tracer) OnSent(f *transport.Flow, path, bytes int) { t.inner.OnSent(f, path, bytes) }
func (t *tracer) OnAck(f *transport.Flow, ev transport.AckEvent) {
	t.rec.noteAck(t.eng.Now(), f.ID, ev)
	t.inner.OnAck(f, ev)
}
func (t *tracer) OnRetransmit(f *transport.Flow, path int) {
	t.rec.noteRetx(t.eng.Now(), f.ID, path)
	t.inner.OnRetransmit(f, path)
}
func (t *tracer) OnTimeout(f *transport.Flow, path int) {
	t.rec.noteTimeout(t.eng.Now(), f.ID, path)
	t.inner.OnTimeout(f, path)
}
func (t *tracer) OnFlowStart(f *transport.Flow) {
	t.rec.noteStart(t.eng.Now(), f.ID, f.Size)
	t.inner.OnFlowStart(f)
}
func (t *tracer) OnFlowDone(f *transport.Flow) {
	t.rec.noteDone(t.eng.Now(), f.ID, f.Size)
	t.inner.OnFlowDone(f)
}

// Summary aggregates a recorder's events into per-scheme behavioural
// statistics: how often flows moved, how long they lived, how failures
// clustered. This is the quantitative companion to eyeballing JSONL.
type Summary struct {
	Flows       int
	Completed   int
	Placements  int
	PathChanges int
	Retransmits int
	Timeouts    int
	ECNMarks    int
	Drops       int
	// Dropped counts events lost to the cap.
	Dropped int

	// MovesPerFlow is the mean number of path changes per completed flow.
	MovesPerFlow float64
	// MeanLifetime is the mean start-to-done duration of completed flows.
	MeanLifetime sim.Time
	// MaxMovesFlow identifies the most-rerouted flow and its move count.
	MaxMovesFlow  uint64
	MaxMovesCount int
}

// Summarize computes the Summary for everything recorded.
func (r *Recorder) Summarize() Summary {
	s := Summary{Dropped: r.Events.Dropped()}
	starts := map[uint64]sim.Time{}
	moves := map[uint64]int{}
	var lifetimes sim.Time
	for _, e := range r.Events.All() {
		switch e.Kind {
		case FlowStart:
			s.Flows++
			starts[e.Flow] = e.At
		case Placement:
			s.Placements++
		case PathChange:
			s.PathChanges++
			moves[e.Flow]++
		case Retransmit:
			s.Retransmits++
		case Timeout:
			s.Timeouts++
		case ECNMark:
			s.ECNMarks++
		case Drop:
			s.Drops++
		case FlowDone:
			s.Completed++
			if st, ok := starts[e.Flow]; ok {
				lifetimes += e.At - st
			}
		}
	}
	if s.Completed > 0 {
		s.MovesPerFlow = float64(s.PathChanges) / float64(s.Completed)
		s.MeanLifetime = lifetimes / sim.Time(s.Completed)
	}
	for f, m := range moves {
		if m > s.MaxMovesCount || (m == s.MaxMovesCount && f < s.MaxMovesFlow) {
			s.MaxMovesCount = m
			s.MaxMovesFlow = f
		}
	}
	return s
}
