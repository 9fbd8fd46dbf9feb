package statusd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/perf"
)

// TestPerfExposition: the hermes_perf_* family is absent until a profiled
// run has finished, present and well-formed after, and /api/perf mirrors
// the same aggregate (404 before).
func TestPerfExposition(t *testing.T) {
	tr := NewTracker(testManifest())

	var b strings.Builder
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "hermes_perf_") {
		t.Fatalf("perf family present before a profiled run:\n%s", b.String())
	}

	srv := httptest.NewServer(Handler(tr, 0))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/perf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/api/perf before a profiled run: status %d, want 404", resp.StatusCode)
	}

	tr.StartRun("p/seed 1", 1).Finish(RunSummary{}, &perf.RunReport{
		EventsTotal: 42, QueuePeak: 7, SimNs: 1000, WallNs: 500,
		ByKind: []perf.KindStat{
			{Kind: "port_tx", Count: 30},
			{Kind: "rto", Count: 12},
		},
	})

	b.Reset()
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	typeCount := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !metricLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typeCount[strings.Fields(rest)[0]]++
		}
	}
	for fam, n := range typeCount {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}
	for _, want := range []string{
		"# TYPE hermes_perf_runs_profiled_total counter\n",
		"hermes_perf_runs_profiled_total 1\n",
		"hermes_perf_events_total 42\n",
		`hermes_perf_events_by_kind_total{kind="port_tx"} 30` + "\n",
		`hermes_perf_events_by_kind_total{kind="rto"} 12` + "\n",
		"hermes_perf_queue_peak 7\n",
		"hermes_perf_sim_per_wall 2\n",
		"# TYPE hermes_perf_goroutines gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", strings.TrimRight(want, "\n"), out)
		}
	}

	var s perf.Summary
	getJSON(t, srv, "/api/perf", &s)
	if s.RunsProfiled != 1 || s.EventsTotal != 42 || s.EventsByKind["port_tx"] != 30 {
		t.Fatalf("/api/perf summary: %+v", s)
	}
	if s.Runtime.GOMAXPROCS < 1 || s.Runtime.GoVersion == "" {
		t.Fatalf("/api/perf runtime snapshot not live: %+v", s.Runtime)
	}

	// An unprofiled run finishing leaves the aggregate as it was.
	tr.StartRun("q/seed 1", 1).Finish(RunSummary{}, nil)
	if s := tr.PerfSummary(); s.RunsProfiled != 1 || s.EventsTotal != 42 {
		t.Fatalf("unprofiled run changed the aggregate: %+v", s)
	}
}

func TestPerfSummaryJSONShape(t *testing.T) {
	var obs perf.Observatory
	data, err := json.Marshal(obs.Summary())
	if err != nil {
		t.Fatal(err)
	}
	// An empty observatory omits the optional maps but keeps the aggregate
	// counters, so dashboards can poll before the first profiled run lands.
	for _, want := range []string{`"RunsProfiled":0`, `"Runtime":{`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("summary JSON missing %s: %s", want, data)
		}
	}
}
