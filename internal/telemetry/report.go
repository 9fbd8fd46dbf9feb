package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/textplot"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// ReportSchema identifies the report layout; bump on breaking changes. The
// golden-file test in the root package pins this schema.
const ReportSchema = "hermes-report/v1"

// BucketStats summarizes one FCT bucket in milliseconds.
type BucketStats struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// FCTSummary carries the run's flow-completion-time percentiles.
type FCTSummary struct {
	Overall        BucketStats `json:"overall"`
	Small          BucketStats `json:"small"`
	Medium         BucketStats `json:"medium"`
	Large          BucketStats `json:"large"`
	Flows          int         `json:"flows"`
	Unfinished     int         `json:"unfinished"`
	UnfinishedFrac float64     `json:"unfinished_frac"`
}

// Series is one named metric column, aligned with Report.SeriesTimesNs.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Report is the machine-readable record of one run: identity and config,
// FCT percentiles, counter totals, histogram summaries, swept time series
// and the decision-log aggregate. All timestamps are simulation time, so a
// report is a pure function of (config, seed).
type Report struct {
	Schema   string  `json:"schema"`
	Scheme   string  `json:"scheme"`
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	Seed     int64   `json:"seed"`

	// Config is the full experiment configuration as provided by the caller.
	Config json.RawMessage `json:"config,omitempty"`

	// Manifest records build/VCS provenance when the producer attached one
	// (CLIs do; the in-process API leaves it nil so reports stay a pure
	// function of (config, seed) across machines and commits).
	Manifest *Manifest `json:"manifest,omitempty"`

	SimDurationNs int64  `json:"sim_duration_ns"`
	Events        uint64 `json:"events"`

	FCT FCTSummary `json:"fct"`

	// Counters holds every counter/gauge total at run end (registry keys),
	// plus run-level derived values under the "run." prefix.
	Counters map[string]float64 `json:"counters,omitempty"`

	Histograms map[string]HistogramStats `json:"histograms,omitempty"`

	SeriesTimesNs []int64  `json:"series_times_ns,omitempty"`
	Series        []Series `json:"series,omitempty"`

	Audit AuditSummary `json:"audit"`
}

// RunData bundles the live telemetry objects of one run: the report sweep
// that samples every metric declared with the Report sink, the histogram
// registry, and the Hermes decision audit log. A nil *RunData is the
// disabled state.
type RunData struct {
	Sweep    *timeseries.Recorder
	Registry *Registry
	Audit    *AuditLog
}

// DefaultSweepInterval is the report sweep's period when none is configured.
const DefaultSweepInterval = sim.Millisecond

// NewRunData builds an enabled telemetry bundle on the given engine.
// interval <= 0 picks DefaultSweepInterval.
func NewRunData(eng *sim.Engine, interval sim.Time) *RunData {
	if interval <= 0 {
		interval = DefaultSweepInterval
	}
	return &RunData{
		Sweep:    timeseries.NewSweep(eng, interval),
		Registry: NewRegistry(),
		Audit:    NewAuditLog(),
	}
}

// Fill copies counter totals, histograms, time series and the audit summary
// into rep. The counter totals are the sweep's last row, which the run's
// final Snap takes after its last event. Safe on a nil receiver.
func (rd *RunData) Fill(rep *Report) {
	if rd == nil {
		return
	}
	if rep.Counters == nil {
		rep.Counters = map[string]float64{}
	}
	for k, v := range rd.Sweep.Latest() {
		rep.Counters[k] = v
	}
	rep.Histograms = rd.Registry.Histograms()
	rep.SeriesTimesNs = rd.Sweep.Times()
	for _, name := range rd.Sweep.Names() {
		rep.Series = append(rep.Series, Series{Name: name, Values: rd.Sweep.Series(name)})
	}
	rep.Audit = SummarizeAudit(rd.Audit)
}

// WriteJSON emits the indented JSON form. encoding/json sorts map keys, so
// the bytes are deterministic for a deterministic run.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("telemetry: report: %w", err)
	}
	return nil
}

// WriteCSV emits the report as long-format CSV: one "counter" row per total
// and one "series" row per (metric, sweep instant) sample. Rows are sorted
// by metric key, so the bytes are deterministic.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "section,metric,time_ns,value"); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "counter,%s,,%g\n", csvEscape(k), r.Counters[k]); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		for i, v := range s.Values {
			if i >= len(r.SeriesTimesNs) {
				break
			}
			if _, err := fmt.Fprintf(w, "series,%s,%d,%g\n",
				csvEscape(s.Name), r.SeriesTimesNs[i], v); err != nil {
				return err
			}
		}
	}
	return nil
}

// csvEscape quotes a field containing commas or quotes.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// RenderText writes a human-readable summary: run identity, FCT table,
// headline counters, audit aggregate and ASCII sparklines of key series.
func (r *Report) RenderText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "report %s: scheme=%s workload=%s load=%.2f seed=%d\n",
		r.Schema, r.Scheme, r.Workload, r.Load, r.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "simulated %.1f ms, %d events\n",
		float64(r.SimDurationNs)/1e6, r.Events); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %8s %10s %10s %10s\n", "fct bucket", "count", "mean(ms)", "p95(ms)", "p99(ms)")
	for _, row := range []struct {
		name string
		b    BucketStats
	}{
		{"overall", r.FCT.Overall}, {"small", r.FCT.Small},
		{"medium", r.FCT.Medium}, {"large", r.FCT.Large},
	} {
		fmt.Fprintf(w, "%-16s %8d %10.3f %10.3f %10.3f\n",
			row.name, row.b.Count, row.b.MeanMs, row.b.P95Ms, row.b.P99Ms)
	}
	if r.FCT.Unfinished > 0 {
		fmt.Fprintf(w, "unfinished: %d (%.2f%%)\n", r.FCT.Unfinished, 100*r.FCT.UnfinishedFrac)
	}

	// Headline counters: everything not drowned in per-port detail.
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		if !strings.Contains(k, "{") { // skip per-label instances
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-40s %14.0f\n", k, r.Counters[k])
		}
	}

	if r.Audit.Entries > 0 || r.Audit.Dropped > 0 {
		fmt.Fprintf(w, "audit: %d entries (%d dropped)\n", r.Audit.Entries, r.Audit.Dropped)
		for _, m := range []struct {
			label string
			v     map[string]int
		}{{"kind", r.Audit.ByKind}, {"reason", r.Audit.ByReason}} {
			ks := make([]string, 0, len(m.v))
			for k := range m.v {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			for _, k := range ks {
				fmt.Fprintf(w, "  %s/%-14s %8d\n", m.label, k, m.v[k])
			}
		}
	}

	// Sparkline the aggregate series that tell the run's story.
	for _, s := range r.Series {
		if !strings.HasSuffix(s.Name, "_total") || len(s.Values) < 2 {
			continue
		}
		fmt.Fprintln(w)
		if err := textplot.Line(w, s.Name, textplot.Downsample(s.Values, 64), 6); err != nil {
			return err
		}
	}
	return nil
}
