package timeseries

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// JSONL layout: one self-describing object per line, keyed by "k" —
// a "meta" header, one "times" line with the shared sample instants,
// one "series" line per column (sorted by name), then the "transition"
// log in record order. The format round-trips: WriteJSONL(ReadJSONL(x))
// is byte-identical to x, which the CI smoke job checks.

type metaLine struct {
	K string `json:"k"`
	Meta
	TruncatedSamples   int `json:"truncated_samples,omitempty"`
	DroppedTransitions int `json:"dropped_transitions,omitempty"`
}

type timesLine struct {
	K  string  `json:"k"`
	Ns []int64 `json:"ns"`
}

type seriesLine struct {
	K    string    `json:"k"`
	Name string    `json:"name"`
	V    []float64 `json:"v"`
}

type transitionLine struct {
	K string `json:"k"`
	Transition
}

// WriteJSONL serializes the recording. Output is a pure function of the
// recorder's contents, so identical runs produce identical bytes.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := r.Meta
	if meta.Schema == "" {
		meta.Schema = Schema
	}
	if err := enc.Encode(metaLine{
		K: "meta", Meta: meta,
		TruncatedSamples:   r.TruncatedSamples(),
		DroppedTransitions: r.Transitions.Dropped(),
	}); err != nil {
		return err
	}
	if err := enc.Encode(timesLine{K: "times", Ns: r.Times()}); err != nil {
		return err
	}
	for _, name := range r.Names() {
		if err := enc.Encode(seriesLine{K: "series", Name: name, V: r.Series(name)}); err != nil {
			return err
		}
	}
	for _, t := range r.Transitions.All() {
		if err := enc.Encode(transitionLine{K: "transition", Transition: t}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reconstructs a recording written by WriteJSONL. The result is
// read-only (no engine attached): accessors and writers work, Start does not.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	r := &Recorder{Transitions: NewLog[Transition](MaxTransitions)}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var kind struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("timeseries: line %d: %w", lineNo, err)
		}
		switch kind.K {
		case "meta":
			var m metaLine
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, fmt.Errorf("timeseries: line %d: %w", lineNo, err)
			}
			r.Meta = m.Meta
			r.Cap = m.Cap
			r.cols.Cap = m.Cap
			r.cols.truncated = m.TruncatedSamples
			r.Transitions.AddDropped(m.DroppedTransitions)
		case "times":
			var t timesLine
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, fmt.Errorf("timeseries: line %d: %w", lineNo, err)
			}
			r.cols.times = t.Ns
		case "series":
			var s seriesLine
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("timeseries: line %d: %w", lineNo, err)
			}
			if len(s.V) != len(r.cols.times) {
				return nil, fmt.Errorf("timeseries: line %d: series %q has %d values, want %d",
					lineNo, s.Name, len(s.V), len(r.cols.times))
			}
			r.cols.load(s.Name, s.V)
		case "transition":
			var t transitionLine
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, fmt.Errorf("timeseries: line %d: %w", lineNo, err)
			}
			r.Transitions.Add(t.Transition)
		default:
			return nil, fmt.Errorf("timeseries: line %d: unknown record kind %q", lineNo, kind.K)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// CSV layout: header "section,metric,time_ns,value", then meta rows, one
// "time" row per instant, one "series" row per (column, instant), and one
// "transition" row per log entry with the tuple packed into the metric
// column as leaf;dst;path;from;to;cause (semicolons: causes contain ':').
// Like JSONL, WriteCSV(ReadCSV(x)) is byte-identical to x.

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV serializes the recording as a flat table for spreadsheet use.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	cw := csv.NewWriter(w)
	write := func(rec ...string) { cw.Write(rec) } //nolint:errcheck // surfaced by cw.Error below
	write("section", "metric", "time_ns", "value")
	meta := r.Meta
	if meta.Schema == "" {
		meta.Schema = Schema
	}
	write("meta", "schema", "0", meta.Schema)
	write("meta", "scheme", "0", meta.Scheme)
	write("meta", "workload", "0", meta.Workload)
	write("meta", "load", "0", fmtF(meta.Load))
	write("meta", "seed", "0", strconv.FormatInt(meta.Seed, 10))
	write("meta", "failure", "0", meta.Failure)
	write("meta", "interval_ns", "0", strconv.FormatInt(meta.IntervalNs, 10))
	write("meta", "cap", "0", strconv.Itoa(meta.Cap))
	write("meta", "sim_duration_ns", "0", strconv.FormatInt(meta.SimDurationNs, 10))
	write("meta", "truncated_samples", "0", strconv.Itoa(r.TruncatedSamples()))
	write("meta", "dropped_transitions", "0", strconv.Itoa(r.Transitions.Dropped()))
	times := r.Times()
	for _, ns := range times {
		write("time", "", strconv.FormatInt(ns, 10), "")
	}
	for _, name := range r.Names() {
		vals := r.Series(name)
		for i, ns := range times {
			write("series", name, strconv.FormatInt(ns, 10), fmtF(vals[i]))
		}
	}
	for _, t := range r.Transitions.All() {
		tuple := fmt.Sprintf("%d;%d;%d;%s;%s;%s", t.Leaf, t.Dst, t.Path, t.From, t.To, t.Cause)
		write("transition", tuple, strconv.FormatInt(t.AtNs, 10), "")
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reconstructs a recording written by WriteCSV.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = 4
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || recs[0][0] != "section" {
		return nil, fmt.Errorf("timeseries: missing CSV header")
	}
	r := &Recorder{Transitions: NewLog[Transition](MaxTransitions)}
	series := map[string][]float64{}
	var order []string
	for _, rec := range recs[1:] {
		section, metric, tns, val := rec[0], rec[1], rec[2], rec[3]
		switch section {
		case "meta":
			if err := r.applyMetaCSV(metric, val); err != nil {
				return nil, err
			}
		case "time":
			ns, err := strconv.ParseInt(tns, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("timeseries: bad time row %q: %w", tns, err)
			}
			r.cols.times = append(r.cols.times, ns)
		case "series":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("timeseries: series %q: bad value %q: %w", metric, val, err)
			}
			if _, ok := series[metric]; !ok {
				order = append(order, metric)
			}
			series[metric] = append(series[metric], v)
		case "transition":
			t, err := parseTransitionTuple(metric)
			if err != nil {
				return nil, err
			}
			t.AtNs, err = strconv.ParseInt(tns, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("timeseries: bad transition time %q: %w", tns, err)
			}
			r.Transitions.Add(t)
		default:
			return nil, fmt.Errorf("timeseries: unknown CSV section %q", section)
		}
	}
	for _, name := range order {
		v := series[name]
		if len(v) != len(r.cols.times) {
			return nil, fmt.Errorf("timeseries: series %q has %d values, want %d",
				name, len(v), len(r.cols.times))
		}
		r.cols.load(name, v)
	}
	return r, nil
}

func (r *Recorder) applyMetaCSV(field, val string) error {
	var err error
	switch field {
	case "schema":
		r.Meta.Schema = val
	case "scheme":
		r.Meta.Scheme = val
	case "workload":
		r.Meta.Workload = val
	case "failure":
		r.Meta.Failure = val
	case "load":
		r.Meta.Load, err = strconv.ParseFloat(val, 64)
	case "seed":
		r.Meta.Seed, err = strconv.ParseInt(val, 10, 64)
	case "interval_ns":
		r.Meta.IntervalNs, err = strconv.ParseInt(val, 10, 64)
	case "sim_duration_ns":
		r.Meta.SimDurationNs, err = strconv.ParseInt(val, 10, 64)
	case "cap":
		r.Meta.Cap, err = strconv.Atoi(val)
		r.Cap = r.Meta.Cap
		r.cols.Cap = r.Meta.Cap
	case "truncated_samples":
		r.cols.truncated, err = strconv.Atoi(val)
	case "dropped_transitions":
		var n int
		n, err = strconv.Atoi(val)
		r.Transitions.AddDropped(n)
	default:
		return fmt.Errorf("timeseries: unknown meta field %q", field)
	}
	if err != nil {
		return fmt.Errorf("timeseries: meta %s: bad value %q: %w", field, val, err)
	}
	return nil
}

func parseTransitionTuple(s string) (Transition, error) {
	parts := strings.SplitN(s, ";", 6)
	if len(parts) != 6 {
		return Transition{}, fmt.Errorf("timeseries: bad transition tuple %q", s)
	}
	var t Transition
	var err error
	if t.Leaf, err = strconv.Atoi(parts[0]); err != nil {
		return Transition{}, fmt.Errorf("timeseries: bad transition leaf in %q: %w", s, err)
	}
	if t.Dst, err = strconv.Atoi(parts[1]); err != nil {
		return Transition{}, fmt.Errorf("timeseries: bad transition dst in %q: %w", s, err)
	}
	if t.Path, err = strconv.Atoi(parts[2]); err != nil {
		return Transition{}, fmt.Errorf("timeseries: bad transition path in %q: %w", s, err)
	}
	t.From, t.To, t.Cause = parts[3], parts[4], parts[5]
	return t, nil
}
