package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// cappedRecorder is a recorder whose events and spans are each capped at n,
// small enough for a test to overflow.
func cappedRecorder(n int, decisions *telemetry.AuditLog) *Recorder {
	rec := NewRecorder(decisions)
	rec.Events = timeseries.NewLog[Event](n)
	rec.Spans = timeseries.NewLog[Span](n)
	return rec
}

// eventsOf returns the events of one flow, in order.
func eventsOf(rec *Recorder, flow uint64) []Event {
	var out []Event
	for _, e := range rec.Events.All() {
		if e.Flow == flow {
			out = append(out, e)
		}
	}
	return out
}

// spansOf returns the spans of one flow, in order.
func spansOf(rec *Recorder, flow uint64) []Span {
	var out []Span
	for _, s := range rec.Spans.All() {
		if s.Flow == flow {
			out = append(out, s)
		}
	}
	return out
}

func tracedStack(t *testing.T) (*sim.Engine, *net.Network, *transport.Transport, *Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(nil)
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return Wrap(&lb.ECMP{Net: nw}, rec, eng)
	})
	return eng, nw, tr, rec
}

func TestTraceLifecycle(t *testing.T) {
	eng, _, tr, rec := tracedStack(t)
	f := tr.StartFlow(0, 2, 500_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	events := eventsOf(rec, f.ID)
	if len(events) < 3 {
		t.Fatalf("only %d events traced", len(events))
	}
	if events[0].Kind != FlowStart || events[0].Size != 500_000 {
		t.Fatalf("first event = %+v, want start", events[0])
	}
	if events[1].Kind != Placement {
		t.Fatalf("second event = %+v, want placement", events[1])
	}
	if events[len(events)-1].Kind != FlowDone {
		t.Fatalf("last event = %+v, want done", events[len(events)-1])
	}
	// Timestamps are monotone.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("trace timestamps not monotone")
		}
	}
	// ECMP never moves: exactly one placement, zero moves.
	if s := rec.Summarize(); s.Placements != 1 || s.PathChanges != 0 {
		t.Fatalf("placements/moves = %d/%d, want 1/0", s.Placements, s.PathChanges)
	}
}

func TestTraceRecordsTimeoutsAndRetransmits(t *testing.T) {
	eng, nw, tr, rec := tracedStack(t)
	dropEarlyData := func(p *net.Packet) bool {
		return eng.Now() < 30*sim.Millisecond && p.Kind == net.Data
	}
	nw.Spines[0].AddDropFn(dropEarlyData)
	nw.Spines[1].AddDropFn(dropEarlyData)
	f := tr.StartFlow(0, 2, 200_000)
	eng.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow unfinished")
	}
	if rec.Summarize().Timeouts == 0 {
		t.Fatal("no RTO events traced despite a 30 ms blackout")
	}
}

func TestTraceJSONL(t *testing.T) {
	eng, _, tr, rec := tracedStack(t)
	tr.StartFlow(0, 2, 10_000)
	eng.Run(sim.Second)
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if want := rec.Events.Len() + rec.Spans.Len(); len(lines) != want {
		t.Fatalf("%d JSONL lines for %d events + %d spans",
			len(lines), rec.Events.Len(), rec.Spans.Len())
	}
	if !strings.Contains(lines[0], `"kind":"start"`) {
		t.Fatalf("unexpected first line: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"kind":"span"`) {
		t.Fatalf("unexpected last line: %s", lines[len(lines)-1])
	}
}

func TestTraceMaxEvents(t *testing.T) {
	eng, _, tr, rec := tracedStack(t)
	rec.Events = timeseries.NewLog[Event](2)
	tr.StartFlow(0, 2, 1_000_000)
	eng.Run(sim.Second)
	if rec.Events.Len() != 2 || rec.Events.Dropped() == 0 {
		t.Fatalf("recorded %d events (%d dropped) with a cap of 2",
			rec.Events.Len(), rec.Events.Dropped())
	}
}

func TestSummarize(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Events.Add(Event{At: 0, Flow: 1, Kind: FlowStart, Size: 100})
	rec.Events.Add(Event{At: 1, Flow: 1, Kind: Placement, Path: 0})
	rec.Events.Add(Event{At: 2, Flow: 1, Kind: PathChange, Path: 1})
	rec.Events.Add(Event{At: 3, Flow: 1, Kind: PathChange, Path: 0})
	rec.Events.Add(Event{At: 4, Flow: 1, Kind: Retransmit, Path: 0})
	rec.Events.Add(Event{At: 10, Flow: 1, Kind: FlowDone, Size: 100})
	rec.Events.Add(Event{At: 5, Flow: 2, Kind: FlowStart, Size: 50})
	rec.Events.Add(Event{At: 6, Flow: 2, Kind: Placement, Path: 2})
	rec.Events.Add(Event{At: 7, Flow: 2, Kind: Timeout, Path: 2})
	s := rec.Summarize()
	if s.Flows != 2 || s.Completed != 1 {
		t.Fatalf("flows/completed = %d/%d", s.Flows, s.Completed)
	}
	if s.PathChanges != 2 || s.MovesPerFlow != 2 {
		t.Fatalf("moves = %d (%.1f/flow)", s.PathChanges, s.MovesPerFlow)
	}
	if s.Retransmits != 1 || s.Timeouts != 1 {
		t.Fatal("loss counters wrong")
	}
	if s.MeanLifetime != 10 {
		t.Fatalf("mean lifetime = %d", s.MeanLifetime)
	}
	if s.MaxMovesFlow != 1 || s.MaxMovesCount != 2 {
		t.Fatalf("max-moves = flow %d (%d)", s.MaxMovesFlow, s.MaxMovesCount)
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	eng, _, tr, rec := tracedStack(t)
	for i := 0; i < 10; i++ {
		tr.StartFlow(0, 2, 50_000)
	}
	eng.Run(sim.Second)
	s := rec.Summarize()
	if s.Flows != 10 || s.Completed != 10 {
		t.Fatalf("flows/completed = %d/%d", s.Flows, s.Completed)
	}
	if s.MeanLifetime <= 0 {
		t.Fatal("mean lifetime not computed")
	}
	// ECMP: exactly one placement per flow, zero moves.
	if s.Placements != 10 || s.PathChanges != 0 {
		t.Fatalf("placements/moves = %d/%d", s.Placements, s.PathChanges)
	}
}

func TestMaxEventsCountsDropped(t *testing.T) {
	rec := cappedRecorder(3, nil)
	for i := 0; i < 7; i++ {
		rec.Events.Add(Event{At: sim.Time(i), Flow: 1, Kind: Retransmit})
	}
	if rec.Events.Len() != 3 {
		t.Fatalf("kept %d events, want 3", rec.Events.Len())
	}
	if rec.Events.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", rec.Events.Dropped())
	}
	if s := rec.Summarize(); s.Dropped != 4 {
		t.Fatalf("Summary.Dropped = %d, want 4", s.Dropped)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL has %d lines, want 3 events + truncation marker", len(lines))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"truncated"`) || !strings.Contains(last, `"dropped":4`) {
		t.Fatalf("missing truncation marker, got %q", last)
	}
}

func TestUncappedRecorderNeverDrops(t *testing.T) {
	rec := NewRecorder(nil)
	for i := 0; i < 100; i++ {
		rec.Events.Add(Event{At: sim.Time(i), Flow: 1, Kind: Retransmit})
	}
	if rec.Events.Len() != 100 || rec.Events.Dropped() != 0 {
		t.Fatalf("events/dropped = %d/%d, want 100/0", rec.Events.Len(), rec.Events.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "truncated") {
		t.Fatal("truncation marker emitted for a complete trace")
	}
}
