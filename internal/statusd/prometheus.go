package statusd

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/hermes-repro/hermes/internal/telemetry"
)

// WriteMetrics renders the tracker as Prometheus text exposition (format
// version 0.0.4): the progress plane as typed hermes_* series, the ALERTS
// and perf.* families when armed, then every telemetry-registry series once
// per run, labelled run="<label>" and never summed across runs, and the
// histograms accumulated over finished runs. Registry keys like
// net.port.tx_bytes{port=l0-s1} become
// hermes_net_port_tx_bytes{run="<label>",port="l0-s1"}.
func (t *Tracker) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	p := t.Progress()
	m := t.Manifest()

	var b strings.Builder
	info := func(name, help, typ string, v float64, labels ...string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		b.WriteString(name)
		writeLabels(&b, labels)
		b.WriteByte(' ')
		b.WriteString(formatValue(v))
		b.WriteByte('\n')
	}
	info("hermes_build_info", "Build provenance; value is always 1.", "gauge", 1,
		"version", m.Version, "revision", m.VCSRevision, "goversion", m.GoVersion)
	info("hermes_runs_planned", "Simulation runs planned so far.", "gauge", float64(p.RunsPlanned))
	info("hermes_runs_completed_total", "Simulation runs finished successfully.", "counter", float64(p.RunsDone))
	info("hermes_runs_failed_total", "Simulation runs that returned an error.", "counter", float64(p.RunsFailed))
	info("hermes_runs_active", "Simulations currently executing.", "gauge", float64(p.RunsActive))
	info("hermes_progress_fraction", "Completed fraction of the planned work (0..1).", "gauge", p.FracDone)
	eta := -1.0
	if p.ETAMs >= 0 {
		eta = float64(p.ETAMs) / 1e3
	}
	info("hermes_eta_seconds", "Estimated wall seconds to completion (-1 = unknown).", "gauge", eta)
	info("hermes_wall_seconds_total", "Wall seconds since the tracker started.", "counter", float64(p.WallMs)/1e3)
	info("hermes_sim_seconds_total", "Virtual seconds simulated (completed + in-flight runs).", "counter", float64(p.SimNs)/1e9)
	info("hermes_sim_events_total", "Simulation events fired (completed + in-flight runs).", "counter", float64(p.Events))

	// SLO watchdog: Prometheus-convention ALERTS series, present only when
	// a run with Config.Alerts attached its evaluator. One sample per OPEN
	// episode (value 1 while pending or firing) — each (rule, series) pair
	// has at most one open episode, so label sets never collide.
	if ev, _, _ := t.Alerts(); ev != nil {
		s := ev.SnapshotSince(0)
		fmt.Fprintf(&b, "# HELP ALERTS SLO watchdog alerts currently pending or firing (value is always 1).\n# TYPE ALERTS gauge\n")
		for _, a := range s.Alerts {
			if a.State != "pending" && a.State != "firing" {
				continue
			}
			b.WriteString("ALERTS")
			writeLabels(&b, []string{
				"alertname", a.Rule, "severity", string(a.Severity),
				"state", a.State, "series", a.Series,
			})
			b.WriteString(" 1\n")
		}
		info("hermes_alerts_pending", "Alert episodes currently in the pending state.", "gauge", float64(s.Pending))
		info("hermes_alerts_firing", "Alert episodes currently in the firing state.", "gauge", float64(s.Firing))
	}

	// Perf aggregate: the perf.* family, present once a run with
	// Config.Perf has finished. Samples arrive pre-sorted and grouped per
	// family, so one HELP/TYPE pair per distinct name suffices.
	if ps := t.PerfSummary(); ps.RunsProfiled > 0 {
		lastName := ""
		for _, pm := range ps.Metrics() {
			name := "hermes_" + sanitizeName(pm.Name)
			if name != lastName {
				fmt.Fprintf(&b, "# HELP %s Performance observatory aggregate %s.\n", name, pm.Name)
				fmt.Fprintf(&b, "# TYPE %s %s\n", name, pm.Type)
				lastName = name
			}
			b.WriteString(name)
			var kv []string
			lks := make([]string, 0, len(pm.Labels))
			for k := range pm.Labels {
				lks = append(lks, k)
			}
			sort.Strings(lks)
			for _, k := range lks {
				kv = append(kv, k, pm.Labels[k])
			}
			writeLabels(&b, kv)
			b.WriteByte(' ')
			b.WriteString(formatValue(pm.Value))
			b.WriteByte('\n')
		}
	}

	// Registry metrics, one sample per run and series: the latest sealed
	// report-sweep row of every in-flight run, then the final row of the
	// run that finished last. Values such as a cache hit rate or a queue
	// high-water mark do not add up across runs, so nothing is summed.
	var live []*RunHandle
	t.mu.Lock()
	for h := range t.active {
		if h.rd != nil {
			live = append(live, h)
		}
	}
	// A finished row is replaced, never written, so it is read unlocked.
	doneLabel, doneRow := t.lastDone, t.lastRow
	hists := make(map[string]telemetry.HistogramStats, len(t.doneHists))
	for k, v := range t.doneHists {
		hs := v
		hs.Buckets = append([]telemetry.HistBucket(nil), v.Buckets...)
		hists[k] = hs
	}
	t.mu.Unlock()

	// Group by sanitized metric name so each family gets exactly one TYPE
	// line with its samples contiguous, as the exposition format requires.
	// A label set must be unique too, so of the runs that share a label
	// only the first added exports: in-flight runs newest first, then the
	// finished one.
	type sample struct {
		labels []string
		value  float64
	}
	families := map[string][]sample{}
	seen := map[string]bool{}
	add := func(run string, row map[string]float64) {
		if seen[run] {
			return
		}
		seen[run] = true
		for k, v := range row {
			name, labels := splitKey(k)
			labels = append([]string{"run", run}, labels...)
			families[name] = append(families[name], sample{labels, v})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].start.After(live[j].start) })
	for _, h := range live {
		add(h.label, h.rd.Sweep.Latest())
	}
	add(doneLabel, doneRow)
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "# HELP %s Telemetry registry metric: the latest report-sweep sample of each run.\n", name)
		fmt.Fprintf(&b, "# TYPE %s untyped\n", name)
		samples := families[name]
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].labels, ",") < strings.Join(samples[j].labels, ",")
		})
		for _, s := range samples {
			b.WriteString(name)
			writeLabels(&b, s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
	}

	hkeys := make([]string, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		writeHistogram(&b, k, hists[k])
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one accumulated histogram in Prometheus histogram
// shape: cumulative _bucket{le=...} series, then _sum and _count.
func writeHistogram(b *strings.Builder, key string, hs telemetry.HistogramStats) {
	name, labels := splitKey(key)
	fmt.Fprintf(b, "# HELP %s Telemetry registry histogram, accumulated across completed runs.\n", name)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	emit := func(le string, count uint64) {
		b.WriteString(name + "_bucket")
		writeLabels(b, append(append([]string{}, labels...), "le", le))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(count, 10))
		b.WriteByte('\n')
	}
	for _, bucket := range hs.Buckets {
		cum += bucket.Count
		emit(formatValue(bucket.UpperBound), cum)
	}
	emit("+Inf", cum+hs.Inf)
	b.WriteString(name + "_sum")
	writeLabels(b, labels)
	fmt.Fprintf(b, " %s\n", formatValue(hs.Sum))
	b.WriteString(name + "_count")
	writeLabels(b, labels)
	fmt.Fprintf(b, " %d\n", hs.Count)
}

// splitKey converts a registry key name{k=v,...} into a sanitized metric
// name and a flat [k1, v1, k2, v2, ...] label list.
func splitKey(key string) (string, []string) {
	name, rest, found := strings.Cut(key, "{")
	name = "hermes_" + sanitizeName(name)
	if !found {
		return name, nil
	}
	rest = strings.TrimSuffix(rest, "}")
	var labels []string
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			continue
		}
		labels = append(labels, k, v)
	}
	return name, labels
}

// sanitizeName maps an arbitrary metric name onto [a-zA-Z0-9_:].
func sanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeLabels renders {k="v",...} from a flat key/value list, escaping label
// values per the exposition format. Empty-valued labels are dropped.
func writeLabels(b *strings.Builder, kv []string) {
	wrote := false
	for i := 0; i+1 < len(kv); i += 2 {
		k, v := kv[i], kv[i+1]
		if v == "" {
			continue
		}
		if !wrote {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		wrote = true
		b.WriteString(sanitizeName(k))
		b.WriteString(`="`)
		r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
		b.WriteString(r.Replace(v))
		b.WriteByte('"')
	}
	if wrote {
		b.WriteByte('}')
	}
}

// formatValue renders a float the way Prometheus clients expect.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
