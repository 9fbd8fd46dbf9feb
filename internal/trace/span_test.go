package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/transport"
)

// TestSpanLifecycle drives a flow through place → move → done and checks
// the resulting residency spans.
func TestSpanLifecycle(t *testing.T) {
	rec := NewRecorder(nil)
	rec.noteStart(0, 1, 100_000)
	rec.notePath(10, 1, 3)
	rec.noteAck(1000, 1, transport.AckEvent{NewlyAcked: 1460, QueueNs: 50})
	rec.noteAck(2000, 1, transport.AckEvent{NewlyAcked: 1460, QueueNs: 70, ECE: true})
	rec.notePath(5000, 1, 1)
	rec.noteAck(6000, 1, transport.AckEvent{NewlyAcked: 1460})
	rec.noteDone(9000, 1, 100_000)

	spans := spansOf(rec, 1)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	first, second := spans[0], spans[1]
	if first.Path != 3 || first.Start != 10 || first.End != 5000 || first.Final {
		t.Fatalf("first span = %+v", first)
	}
	if first.Bytes != 2920 || first.QueueNs != 120 || first.EcnMarks != 1 {
		t.Fatalf("first span payload = %+v", first)
	}
	if first.FirstAck != 1000 {
		t.Fatalf("first span FirstAck = %d", first.FirstAck)
	}
	if second.Path != 1 || second.Start != 5000 || second.End != 9000 || !second.Final {
		t.Fatalf("second span = %+v", second)
	}
	if second.FirstAck != 6000 || second.Bytes != 1460 {
		t.Fatalf("second span payload = %+v", second)
	}
}

// TestSpanStallAccounting checks that RTO fires charge the idle gap since
// the last cumulative-ACK progress to the open span.
func TestSpanStallAccounting(t *testing.T) {
	rec := NewRecorder(nil)
	rec.noteStart(0, 1, 100_000)
	rec.notePath(0, 1, 0)
	rec.noteAck(1000, 1, transport.AckEvent{NewlyAcked: 1460})
	rec.noteTimeout(11_000, 1, 0) // 10 µs since last progress
	rec.noteTimeout(31_000, 1, 0) // 20 µs more (backoff doubled)
	rec.noteAck(32_000, 1, transport.AckEvent{NewlyAcked: 1460})
	rec.noteDone(33_000, 1, 100_000)

	sp := spansOf(rec, 1)[0]
	if sp.Timeouts != 2 || sp.StallNs != 30_000 {
		t.Fatalf("span = %+v, want 2 timeouts / 30µs stall", sp)
	}
	evs := eventsOf(rec, 1)
	var stalls []sim.Time
	for _, e := range evs {
		if e.Kind == Timeout {
			stalls = append(stalls, e.Stall)
		}
	}
	if !reflect.DeepEqual(stalls, []sim.Time{10_000, 20_000}) {
		t.Fatalf("rto event stalls = %v", stalls)
	}
}

// TestCloseOpenSpans checks horizon-closing: mid-stall flows are charged the
// trailing gap, healthy in-flight flows are not.
func TestCloseOpenSpans(t *testing.T) {
	rec := NewRecorder(nil)
	// Flow 1: stalled since its RTO at t=2000.
	rec.noteStart(0, 1, 1000)
	rec.notePath(0, 1, 0)
	rec.noteTimeout(2000, 1, 0)
	// Flow 2: healthy, acked recently.
	rec.noteStart(0, 2, 1000)
	rec.notePath(0, 2, 1)
	rec.noteAck(9000, 2, transport.AckEvent{NewlyAcked: 500})

	rec.CloseOpenSpans(10_000)
	s1 := spansOf(rec, 1)[0]
	s2 := spansOf(rec, 2)[0]
	if s1.End != 10_000 || s1.StallNs != 2000+8000 || s1.Final {
		t.Fatalf("stalled span = %+v", s1)
	}
	if s2.End != 10_000 || s2.StallNs != 0 || s2.Final {
		t.Fatalf("healthy span = %+v", s2)
	}
	// Idempotent: nothing left open.
	rec.CloseOpenSpans(20_000)
	if spansOf(rec, 1)[0].End != 10_000 {
		t.Fatal("CloseOpenSpans not idempotent")
	}
}

// TestSpanDropCounter checks NoteDrop/NoteMark event emission and the span
// drop counter.
func TestSpanDropCounter(t *testing.T) {
	rec := NewRecorder(nil)
	rec.noteStart(0, 1, 1000)
	rec.notePath(0, 1, 2)
	rec.NoteDrop(500, 1, 2)
	rec.NoteMark(600, 1, 2)
	if s := rec.Summarize(); s.Drops != 1 || s.ECNMarks != 1 {
		t.Fatal("drop/mark events not recorded")
	}
	if sp := spansOf(rec, 1)[0]; sp.Drops != 1 {
		t.Fatalf("span drops = %d", sp.Drops)
	}
}

// TestJSONLRoundTrip writes a fully populated trace and reads it back.
func TestJSONLRoundTrip(t *testing.T) {
	rec := cappedRecorder(3, telemetry.NewAuditLog())
	rec.Meta = Meta{Schema: SchemaV2, Scheme: "hermes", Load: 0.5, Seed: 7,
		BaseRTTNs: 20_000, HostRateBps: 10_000_000_000}
	rec.noteStart(0, 1, 5000)
	rec.notePath(0, 1, 0)
	rec.noteAck(1000, 1, transport.AckEvent{NewlyAcked: 5000, QueueNs: 42})
	rec.noteDone(1000, 1, 5000) // event dropped by cap, span still closes
	rec.FlowHops = []FlowHops{{Flow: 1, DataPkts: 4, QueueNs: 42, SerNs: 10,
		HopQueueNs: [net.MaxHops]int64{42, 0, 0, 0},
		HopPkts:    [net.MaxHops]uint64{4, 4, 4, 4}}}
	rec.Decisions.Add(telemetry.AuditEntry{At: 900, Kind: telemetry.AuditVerdict,
		Reason: telemetry.ReasonBlackhole, Host: -1, SrcLeaf: 3, DstLeaf: 1, FromPath: 2, ToPath: -1})

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != rec.Meta {
		t.Fatalf("meta round-trip: %+v != %+v", got.Meta, rec.Meta)
	}
	if !reflect.DeepEqual(got.Events.All(), rec.Events.All()) {
		t.Fatalf("events round-trip:\n%+v\n%+v", got.Events.All(), rec.Events.All())
	}
	if !reflect.DeepEqual(got.Spans.All(), rec.Spans.All()) {
		t.Fatalf("spans round-trip:\n%+v\n%+v", got.Spans.All(), rec.Spans.All())
	}
	if !reflect.DeepEqual(got.FlowHops, rec.FlowHops) {
		t.Fatalf("hops round-trip:\n%+v\n%+v", got.FlowHops, rec.FlowHops)
	}
	if !reflect.DeepEqual(got.Decisions.All(), rec.Decisions.All()) {
		t.Fatalf("verdicts round-trip:\n%+v\n%+v", got.Decisions.All(), rec.Decisions.All())
	}
	if got.Events.Dropped() != rec.Events.Dropped() {
		t.Fatalf("dropped round-trip: %d != %d", got.Events.Dropped(), rec.Events.Dropped())
	}
}

// TestSpanReasonFromDecision: a span takes the reason of the Hermes decision
// logged for its flow, path and instant as it opens; a span with no such
// decision (here a move the log never saw) has none, and verdicts never
// stamp spans.
func TestSpanReasonFromDecision(t *testing.T) {
	log := telemetry.NewAuditLog()
	rec := NewRecorder(log)
	decide := func(at int64, kind telemetry.AuditKind, reason string, from, to int) {
		log.Add(telemetry.AuditEntry{At: at, Kind: kind, Reason: reason,
			Flow: 1, FromPath: from, ToPath: to})
	}
	rec.noteStart(0, 1, 1000)
	decide(0, telemetry.AuditPlace, telemetry.ReasonFresh, -1, 2)
	rec.notePath(0, 1, 2)
	log.Add(telemetry.AuditEntry{At: 4000, Kind: telemetry.AuditVerdict,
		Reason: telemetry.ReasonBlackhole, Host: -1, DstLeaf: 1, FromPath: 2, ToPath: -1})
	decide(5000, telemetry.AuditPlace, telemetry.ReasonFailure, 2, 3)
	rec.notePath(5000, 1, 3)
	decide(6000, telemetry.AuditReroute, telemetry.ReasonCongestion, 3, 1)
	rec.notePath(7000, 1, 0)
	rec.noteDone(9000, 1, 1000)

	var got []string
	for _, sp := range spansOf(rec, 1) {
		got = append(got, sp.Reason)
	}
	want := []string{telemetry.ReasonFresh, telemetry.ReasonFailure, ""}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span reasons = %q, want %q", got, want)
	}
}

// TestPerfettoExport validates the Chrome trace-event JSON shape.
func TestPerfettoExport(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Meta = Meta{Schema: SchemaV2, Scheme: "hermes"}
	rec.noteStart(0, 1, 64_000)
	rec.notePath(0, 1, 0)
	rec.noteTimeout(3000, 1, 0)
	rec.notePath(3000, 1, 1)
	rec.noteAck(4000, 1, transport.AckEvent{NewlyAcked: 64_000})
	rec.noteDone(4000, 1, 64_000)
	rec.Decisions = telemetry.NewAuditLog()
	rec.Decisions.Add(telemetry.AuditEntry{At: 2900, Kind: telemetry.AuditVerdict,
		Reason: telemetry.ReasonBlackhole, Host: -1, SrcLeaf: 0, DstLeaf: 1, FromPath: 0, ToPath: -1})

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	var slices, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
			if e["dur"] == nil || e["ts"] == nil {
				t.Fatalf("slice without ts/dur: %v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if slices != 2 {
		t.Fatalf("%d slices, want 2 spans", slices)
	}
	if instants != 2 { // one rto + one verdict
		t.Fatalf("%d instants, want 2", instants)
	}
	if meta < 3 { // process_name + thread_name + monitor process
		t.Fatalf("%d metadata records", meta)
	}
	if !strings.Contains(buf.String(), `"verdict: blackhole"`) {
		t.Fatal("verdict instant missing")
	}
	if !strings.Contains(buf.String(), `"args":{"name":"leaf 0"}`) {
		t.Fatal("monitor track not named after the verdict's source leaf")
	}
}

// TestAttribution checks the four-way FCT decomposition and its clamping
// invariant on a hand-built trace.
func TestAttribution(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Meta = Meta{Schema: SchemaV2, BaseRTTNs: 10_000, HostRateBps: 8_000_000_000}
	// Flow 1: 8 KB (base = 10µs RTT + 8µs ser = 18µs), one RTO stall of
	// 40µs, one move with first ack 25µs after the move (reroute gap 15µs),
	// finishing at t=100µs.
	rec.noteStart(0, 1, 8000)
	rec.notePath(0, 1, 0)
	rec.noteAck(5_000, 1, transport.AckEvent{NewlyAcked: 4000, QueueNs: 2_000})
	rec.noteTimeout(45_000, 1, 0)
	rec.notePath(45_000, 1, 1)
	rec.noteAck(70_000, 1, transport.AckEvent{NewlyAcked: 2000})
	rec.noteAck(100_000, 1, transport.AckEvent{NewlyAcked: 2000})
	rec.noteDone(100_000, 1, 8000)

	flows := rec.Attribution()
	if len(flows) != 1 {
		t.Fatalf("%d breakdowns", len(flows))
	}
	b := flows[0]
	if !b.Finished || b.FCT != 100_000 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.StallNs != 40_000 {
		t.Fatalf("stall = %d, want 40µs", b.StallNs)
	}
	if b.BaseNs != 18_000 {
		t.Fatalf("base = %d, want 18µs", b.BaseNs)
	}
	if b.RerouteNs != 15_000 {
		t.Fatalf("reroute = %d, want 15µs", b.RerouteNs)
	}
	if sum := b.BaseNs + b.QueueNs + b.StallNs + b.RerouteNs; sum != b.FCT {
		t.Fatalf("components sum to %d, FCT %d", sum, b.FCT)
	}
	if b.Moves != 1 || b.Timeouts != 1 || b.SumPktQueueNs != 2_000 {
		t.Fatalf("counters = %+v", b)
	}
	if !reflect.DeepEqual(b.Paths, []int{0, 1}) {
		t.Fatalf("paths = %v", b.Paths)
	}
}

// TestAttributionClamping: a stall larger than the FCT cannot push any
// component negative.
func TestAttributionClamping(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Meta = Meta{Schema: SchemaV2, BaseRTTNs: 1_000_000, HostRateBps: 1}
	rec.noteStart(0, 1, 1000)
	rec.notePath(0, 1, 0)
	rec.noteDone(5000, 1, 1000)
	b := rec.Attribution()[0]
	if b.FCT != 5000 || b.BaseNs != 5000 || b.QueueNs != 0 || b.StallNs != 0 {
		t.Fatalf("clamped breakdown = %+v", b)
	}
	if sum := b.BaseNs + b.QueueNs + b.StallNs + b.RerouteNs; sum != b.FCT {
		t.Fatalf("components sum to %d, FCT %d", sum, b.FCT)
	}
}

// TestTailAttribution checks percentile selection and share weighting.
func TestTailAttribution(t *testing.T) {
	flows := make([]FlowBreakdown, 100)
	for i := range flows {
		fct := sim.Time((i + 1) * 1000)
		flows[i] = FlowBreakdown{Flow: uint64(i), FCT: fct, QueueNs: fct}
	}
	// Flow 99 (the p99 tail) is all stall instead.
	flows[99].QueueNs = 0
	flows[99].StallNs = flows[99].FCT

	ts := TailAttribution(flows, 0.99)
	if ts.N != 1 || ts.CutoffNs != 100_000 {
		t.Fatalf("tail = %+v", ts)
	}
	if ts.StallShare != 1 || ts.QueueShare != 0 {
		t.Fatalf("shares = %+v", ts)
	}
	all := TailAttribution(flows, 0)
	if all.N != 100 || all.CutoffNs != 0 {
		t.Fatalf("full aggregate = %+v", all)
	}
	if all.StallShare <= 0 || all.QueueShare <= 0.9 {
		t.Fatalf("full shares = %+v", all)
	}
	if e := TailAttribution(nil, 0.99); e.N != 0 {
		t.Fatal("empty input not handled")
	}
}

// TestSlowestFlows checks ordering and truncation.
func TestSlowestFlows(t *testing.T) {
	flows := []FlowBreakdown{
		{Flow: 1, FCT: 10}, {Flow: 2, FCT: 30}, {Flow: 3, FCT: 20}, {Flow: 4, FCT: 30},
	}
	top := SlowestFlows(flows, 3)
	if len(top) != 3 || top[0].Flow != 2 || top[1].Flow != 4 || top[2].Flow != 3 {
		t.Fatalf("top = %+v", top)
	}
	if flows[0].Flow != 1 {
		t.Fatal("input mutated")
	}
}

// TestSpanCapIndependent: the event cap also bounds spans, counted
// separately, with the marker carrying both.
func TestSpanCapIndependent(t *testing.T) {
	rec := cappedRecorder(2, nil)
	for f := uint64(1); f <= 4; f++ {
		rec.noteStart(sim.Time(f), f, 100)
		rec.notePath(sim.Time(f), f, 0)
	}
	if rec.Spans.Len() != 2 || rec.Spans.Dropped() != 2 {
		t.Fatalf("spans/droppedSpans = %d/%d", rec.Spans.Len(), rec.Spans.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped_spans":2`) {
		t.Fatal("span truncation not marked")
	}
}
