package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/hermes-repro/hermes/cmd/internal/cli"
	"github.com/hermes-repro/hermes/internal/textplot"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// loadTimeseries reads a flight-recorder file written by hermes-sim
// -timeseries / -timeseries-csv or hermes-bench -timeseries, picking the
// parser by extension.
func loadTimeseries(path string) *timeseries.Recorder {
	f, err := os.Open(path)
	if err != nil {
		cli.Exit(err)
	}
	defer f.Close()
	var rec *timeseries.Recorder
	if strings.HasSuffix(path, ".csv") {
		rec, err = timeseries.ReadCSV(f)
	} else {
		rec, err = timeseries.ReadJSONL(f)
	}
	if err != nil {
		cli.Exit(fmt.Errorf("parse %s: %w", path, err))
	}
	return rec
}

// stateRank orders path characterizations for the timeline glyphs; it must
// match the glyph array in timeline below.
var stateRank = map[string]float64{"gray": 0, "good": 1, "congested": 2, "failed": 3}

// timeline renders the flight recorder as text: run identity, sparklines of
// the aggregate series, the per-port queue heatmap, per-path state timelines
// reconstructed from the transition log, and the transitions themselves.
func timeline(w io.Writer, rec *timeseries.Recorder, width int) error {
	m := rec.Meta
	if m.Schema != "" {
		fmt.Fprintf(w, "timeseries: scheme=%s workload=%s load=%.2f seed=%d", m.Scheme, m.Workload, m.Load, m.Seed)
		if m.Failure != "" {
			fmt.Fprintf(w, " failure=%s", m.Failure)
		}
		fmt.Fprintf(w, "\nsampled every %.0f us over %.1f ms", float64(m.IntervalNs)/1e3, float64(m.SimDurationNs)/1e6)
	}
	fmt.Fprintf(w, " (%d samples", rec.Len())
	if t := rec.TruncatedSamples(); t > 0 {
		fmt.Fprintf(w, ", %d truncated at the ring cap", t)
	}
	fmt.Fprintln(w, ")")

	// Aggregate sparklines: throughput, flow population, loss signals, and
	// the fabric-wide Hermes census summed over leaves.
	labelW := 0
	spark := func(label string, vals []float64) {
		if len(vals) == 0 {
			return
		}
		_ = textplot.Sparkline(w, fmt.Sprintf("%-*s", labelW, label), vals, width)
	}
	census := map[string][]float64{}
	for _, name := range rec.Names() {
		for _, state := range []string{"good", "gray", "congested", "failed"} {
			if strings.HasPrefix(name, "hermes.paths_"+state+"{") {
				census[state] = addSeries(census[state], rec.Series(name))
			}
		}
	}
	aggregates := []string{
		"net.tx_gbps", "net.drops_total", "net.ecn_marks_total",
		"transport.flows_active", "transport.inflight_bytes",
		"transport.retransmits_total", "transport.timeouts_total",
	}
	for _, name := range aggregates {
		if len(rec.Series(name)) > 0 && len(name) > labelW {
			labelW = len(name)
		}
	}
	for state := range census {
		if n := len("hermes.paths_" + state); n > labelW {
			labelW = n
		}
	}
	fmt.Fprintln(w)
	for _, name := range aggregates {
		spark(name, rec.Series(name))
	}
	for _, state := range []string{"good", "gray", "congested", "failed"} {
		spark("hermes.paths_"+state, census[state])
	}

	printQueueHeatmap(w, rec.Names(), rec.Series, width)
	printPathTimelines(w, rec, width)
	printTransitions(w, rec)
	return nil
}

func addSeries(acc, v []float64) []float64 {
	if acc == nil {
		acc = make([]float64, len(v))
	}
	for i := range v {
		if i < len(acc) {
			acc[i] += v[i]
		}
	}
	return acc
}

// printPathTimelines reconstructs each transitioning path's state over the
// retained sample window from the transition log and renders it one glyph
// per cell: '.' gray, 'g' good, 'c' congested, 'X' failed.
func printPathTimelines(w io.Writer, rec *timeseries.Recorder, width int) {
	trs := rec.Transitions.All()
	times := rec.Times()
	if len(trs) == 0 || len(times) == 0 {
		return
	}
	type key struct{ leaf, dst, path int }
	byPath := map[key][]timeseries.Transition{}
	var order []key
	for _, t := range trs {
		k := key{t.Leaf, t.Dst, t.Path}
		if _, ok := byPath[k]; !ok {
			order = append(order, k)
		}
		byPath[k] = append(byPath[k], t)
	}
	// Most severe excursion first, so failed/congested paths survive the row
	// cap; ties break on (leaf, dst, path) to keep the order deterministic.
	severity := func(k key) float64 {
		worst := 0.0
		for _, t := range byPath[k] {
			if r := stateRank[t.To]; r > worst {
				worst = r
			}
		}
		return worst
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if sa, sb := severity(a), severity(b); sa != sb {
			return sa > sb
		}
		if a.leaf != b.leaf {
			return a.leaf < b.leaf
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.path < b.path
	})
	const maxRows = 24
	shown := order
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	rows := make([]textplot.Series, 0, len(shown))
	for _, k := range shown {
		seq := byPath[k] // already in time order (single appender)
		vals := make([]float64, len(times))
		state := stateRank[seq[0].From]
		next := 0
		for i, at := range times {
			for next < len(seq) && seq[next].AtNs <= at {
				state = stateRank[seq[next].To]
				next++
			}
			vals[i] = state
		}
		rows = append(rows, textplot.Series{
			Label:  fmt.Sprintf("leaf%d dst%d path%d", k.leaf, k.dst, k.path),
			Values: vals,
		})
	}
	fmt.Fprintln(w)
	_ = textplot.Timeline(w,
		"path-state timelines ('.' gray, 'g' good, 'c' congested, 'X' failed):",
		rows, []byte{'.', 'g', 'c', 'X'}, width)
	if extra := len(order) - len(shown); extra > 0 {
		fmt.Fprintf(w, "... %d more transitioning paths\n", extra)
	}
}

func printTransitions(w io.Writer, rec *timeseries.Recorder) {
	trs := rec.Transitions.All()
	if len(trs) == 0 {
		return
	}
	fmt.Fprintf(w, "\npath-state transitions (%d", len(trs))
	if rec.Transitions.Dropped() > 0 {
		fmt.Fprintf(w, ", %d dropped at the cap", rec.Transitions.Dropped())
	}
	fmt.Fprintln(w, "):")
	max := len(trs)
	if max > 20 {
		max = 20
	}
	for _, t := range trs[:max] {
		fmt.Fprintf(w, "  %10.3f ms  leaf %d -> dst %d path %d: %s -> %s (%s)\n",
			ms(t.AtNs), t.Leaf, t.Dst, t.Path, t.From, t.To, t.Cause)
	}
	if len(trs) > max {
		fmt.Fprintf(w, "  ... %d more\n", len(trs)-max)
	}
}
