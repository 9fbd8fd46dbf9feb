package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/hermes-repro/hermes/internal/telemetry"
)

// Chrome trace-event export: the trace opens in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Layout:
//
//   - process "flows": one thread (track) per flow; each path-residency span
//     is a complete slice named after its path, with bytes/retx/stall/queue
//     in args; retx/rto/ecn/drop events are instants on the flow's track.
//   - process "hermes monitor": one thread per source leaf (the rack whose
//     monitor issued the verdict); each failed-path verdict is an instant.
//
// Timestamps are microseconds of simulation time (the trace-event format's
// unit); sub-microsecond precision survives as fractions.

//   - process "timeseries": one counter track (ph "C") per flight-recorder
//     series with at least one nonzero sample — queue depths, utilization,
//     Hermes path census, transport aggregates.
//   - process "hermes paths": one thread per source leaf; each path-state
//     transition is an instant named from->to with dst/path/cause in args.

const (
	pidFlows       = 1
	pidMonitor     = 2
	pidTimeseries  = 3
	pidTransitions = 4
)

type pfEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type pfDoc struct {
	TraceEvents     []pfEvent `json:"traceEvents"`
	DisplayTimeUnit string    `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WritePerfetto emits the trace as Chrome trace-event JSON.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	doc := pfDoc{DisplayTimeUnit: "ns"}
	add := func(e pfEvent) { doc.TraceEvents = append(doc.TraceEvents, e) }

	procName := "flows"
	if r.Meta.Scheme != "" {
		procName = "flows (" + r.Meta.Scheme + ")"
	}
	add(pfEvent{Name: "process_name", Ph: "M", Pid: pidFlows,
		Args: map[string]any{"name": procName}})

	// Track names: "flow N (size)" where the start event is known.
	sizes := map[uint64]int64{}
	for _, e := range r.Events.All() {
		if e.Kind == FlowStart {
			sizes[e.Flow] = e.Size
		}
	}
	flows := map[uint64]bool{}
	for _, s := range r.Spans.All() {
		flows[s.Flow] = true
	}
	for _, e := range r.Events.All() {
		flows[e.Flow] = true
	}
	ids := make([]uint64, 0, len(flows))
	for f := range flows {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, f := range ids {
		name := fmt.Sprintf("flow %d", f)
		if sz, ok := sizes[f]; ok {
			name = fmt.Sprintf("flow %d (%d B)", f, sz)
		}
		add(pfEvent{Name: "thread_name", Ph: "M", Pid: pidFlows, Tid: f,
			Args: map[string]any{"name": name}})
	}

	for _, s := range r.Spans.All() {
		dur := us(int64(s.End - s.Start))
		args := map[string]any{
			"path":        s.Path,
			"bytes_acked": s.Bytes,
		}
		if s.Retx > 0 {
			args["retx"] = s.Retx
		}
		if s.Timeouts > 0 {
			args["rto"] = s.Timeouts
			args["stall_ns"] = int64(s.StallNs)
		}
		if s.EcnMarks > 0 {
			args["ecn_marks"] = s.EcnMarks
		}
		if s.Drops > 0 {
			args["drops"] = s.Drops
		}
		if s.QueueNs > 0 {
			args["queue_ns"] = int64(s.QueueNs)
		}
		if s.Reason != "" {
			args["reason"] = s.Reason
		}
		add(pfEvent{
			Name: fmt.Sprintf("path %d", s.Path), Ph: "X", Cat: "span",
			Ts: us(int64(s.Start)), Dur: &dur, Pid: pidFlows, Tid: s.Flow,
			Args: args,
		})
	}

	for _, e := range r.Events.All() {
		switch e.Kind {
		case Retransmit, Timeout, ECNMark, Drop:
			args := map[string]any{"path": e.Path}
			if e.Stall > 0 {
				args["stall_ns"] = int64(e.Stall)
			}
			add(pfEvent{Name: string(e.Kind), Ph: "i", Cat: "signal", S: "t",
				Ts: us(int64(e.At)), Pid: pidFlows, Tid: e.Flow, Args: args})
		}
	}

	named := map[uint64]bool{}
	for _, v := range r.Decisions.All() {
		if v.Kind != telemetry.AuditVerdict {
			continue
		}
		if len(named) == 0 {
			add(pfEvent{Name: "process_name", Ph: "M", Pid: pidMonitor,
				Args: map[string]any{"name": "hermes monitor"}})
		}
		tid := uint64(v.SrcLeaf)
		if !named[tid] {
			named[tid] = true
			add(pfEvent{Name: "thread_name", Ph: "M", Pid: pidMonitor, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("leaf %d", v.SrcLeaf)}})
		}
		add(pfEvent{
			Name: fmt.Sprintf("verdict: %s", v.Reason), Ph: "i", Cat: "verdict",
			S: "t", Ts: us(v.At), Pid: pidMonitor, Tid: tid,
			Args: map[string]any{"path": v.FromPath, "dst_leaf": v.DstLeaf},
		})
	}

	r.addFlightEvents(add)

	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("trace: perfetto: %w", err)
	}
	return nil
}

// addFlightEvents renders the flight recorder (when attached) as counter
// tracks plus path-state transition instants.
func (r *Recorder) addFlightEvents(add func(pfEvent)) {
	fl := r.Flight
	if fl == nil {
		return
	}
	times := fl.Times()
	if len(times) > 0 {
		named := false
		for _, name := range fl.Names() {
			vals := fl.Series(name)
			nonzero := false
			for _, v := range vals {
				if v != 0 {
					nonzero = true
					break
				}
			}
			if !nonzero {
				continue // all-zero tracks only bloat the trace
			}
			if !named {
				named = true
				add(pfEvent{Name: "process_name", Ph: "M", Pid: pidTimeseries,
					Args: map[string]any{"name": "timeseries"}})
			}
			for i, v := range vals {
				add(pfEvent{Name: name, Ph: "C", Cat: "timeseries",
					Ts: us(times[i]), Pid: pidTimeseries,
					Args: map[string]any{"value": v}})
			}
		}
	}

	trs := fl.Transitions.All()
	if len(trs) == 0 {
		return
	}
	add(pfEvent{Name: "process_name", Ph: "M", Pid: pidTransitions,
		Args: map[string]any{"name": "hermes paths"}})
	named := map[uint64]bool{}
	for _, t := range trs {
		tid := uint64(t.Leaf)
		if !named[tid] {
			named[tid] = true
			add(pfEvent{Name: "thread_name", Ph: "M", Pid: pidTransitions, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("leaf %d", t.Leaf)}})
		}
		add(pfEvent{
			Name: fmt.Sprintf("%s->%s", t.From, t.To), Ph: "i", Cat: "path-state",
			S: "t", Ts: us(t.AtNs), Pid: pidTransitions, Tid: tid,
			Args: map[string]any{"dst_leaf": t.Dst, "path": t.Path, "cause": t.Cause},
		})
	}
}
