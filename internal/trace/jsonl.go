package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/hermes-repro/hermes/internal/telemetry"
)

// JSONL layout (one object per line, discriminated by "kind"):
//
//	{"kind":"meta", ...}      — at most one, first; absent in v1 traces
//	{"kind":"start"|"place"|"move"|"retx"|"rto"|"ecn"|"drop"|"done", ...}
//	{"kind":"span", ...}      — path-residency spans, after the events
//	{"kind":"hops", ...}      — per-flow fabric delay decomposition
//	{"kind":"verdict", ...}   — Hermes monitor path condemnations
//	{"kind":"truncated", ...} — trailing marker when caps dropped records

type metaLine struct {
	Kind string `json:"kind"`
	Meta
}

type spanLine struct {
	Kind string `json:"kind"`
	Span
}

type hopsLine struct {
	Kind string `json:"kind"`
	FlowHops
}

// verdictLine is a Hermes monitor verdict from the run's decision log, on
// the same timeline as the flow spans.
type verdictLine struct {
	Kind    string `json:"kind"`
	At      int64  `json:"at_ns"`
	SrcLeaf int    `json:"src_leaf"`
	DstLeaf int    `json:"dst_leaf"`
	Path    int    `json:"path"`
	Reason  string `json:"reason"`
}

type truncLine struct {
	Kind         string `json:"kind"`
	Dropped      int    `json:"dropped,omitempty"`
	DroppedSpans int    `json:"dropped_spans,omitempty"`
}

// WriteJSONL emits the full trace — meta header, events, spans, per-flow hop
// aggregates, verdicts — one JSON object per line, with a trailing
// truncation marker when the cap dropped anything.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	fail := func(err error) error { return fmt.Errorf("trace: jsonl: %w", err) }
	if r.Meta.Schema != "" {
		if err := enc.Encode(metaLine{"meta", r.Meta}); err != nil {
			return fail(err)
		}
	}
	for _, e := range r.Events.All() {
		if err := enc.Encode(e); err != nil {
			return fail(err)
		}
	}
	for _, s := range r.Spans.All() {
		if err := enc.Encode(spanLine{"span", s}); err != nil {
			return fail(err)
		}
	}
	for _, h := range r.FlowHops {
		if err := enc.Encode(hopsLine{"hops", h}); err != nil {
			return fail(err)
		}
	}
	for _, v := range r.Decisions.All() {
		if v.Kind != telemetry.AuditVerdict {
			continue
		}
		if err := enc.Encode(verdictLine{"verdict", v.At, v.SrcLeaf, v.DstLeaf, v.FromPath, v.Reason}); err != nil {
			return fail(err)
		}
	}
	if d, ds := r.Events.Dropped(), r.Spans.Dropped(); d > 0 || ds > 0 {
		if err := enc.Encode(truncLine{"truncated", d, ds}); err != nil {
			return fail(err)
		}
	}
	return fail0(bw.Flush())
}

func fail0(err error) error {
	if err != nil {
		return fmt.Errorf("trace: jsonl: %w", err)
	}
	return nil
}

// ReadJSONL parses a trace written by WriteJSONL back into a Recorder
// (events, spans, hops, verdicts as a decision log, and drop counters; live
// flow bookkeeping is not reconstructed — a read trace is for analysis, not
// resumption). v1 traces (bare event lines) load with empty Meta and no
// spans.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	r := NewRecorder(telemetry.NewAuditLog())
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
		var err error
		switch probe.Kind {
		case "meta":
			var m metaLine
			if err = json.Unmarshal(line, &m); err == nil {
				r.Meta = m.Meta
			}
		case "span":
			var s spanLine
			if err = json.Unmarshal(line, &s); err == nil {
				r.Spans.Add(s.Span)
			}
		case "hops":
			var h hopsLine
			if err = json.Unmarshal(line, &h); err == nil {
				r.FlowHops = append(r.FlowHops, h.FlowHops)
			}
		case "verdict":
			var v verdictLine
			if err = json.Unmarshal(line, &v); err == nil {
				r.Decisions.Add(telemetry.AuditEntry{
					At: v.At, Kind: telemetry.AuditVerdict, Reason: v.Reason,
					Host: -1, SrcLeaf: v.SrcLeaf, DstLeaf: v.DstLeaf, FromPath: v.Path, ToPath: -1,
				})
			}
		case "truncated":
			var t truncLine
			if err = json.Unmarshal(line, &t); err == nil {
				r.Events.AddDropped(t.Dropped)
				r.Spans.AddDropped(t.DroppedSpans)
			}
		default:
			var e Event
			if err = json.Unmarshal(line, &e); err == nil {
				r.Events.Add(e)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: jsonl: %w", err)
	}
	return r, nil
}
