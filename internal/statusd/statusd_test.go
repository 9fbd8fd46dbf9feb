package statusd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

func testManifest() telemetry.Manifest {
	return telemetry.Manifest{
		Schema:      telemetry.ManifestSchema,
		Module:      "github.com/hermes-repro/hermes",
		Version:     "v0.6.0-test",
		GoVersion:   "go1.22",
		VCSRevision: "deadbeef",
	}
}

// TestNilTrackerIsNoOp: the disabled state is a nil pointer; every method
// must be callable on it.
func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.Plan(3)
	tr.Note("x")
	h := tr.StartRun("r", 10)
	if h != nil {
		t.Fatalf("nil tracker returned a live handle")
	}
	h.Update(1, 2, 3, 4)
	h.SetRunData(testRunData(map[string]float64{"a": 1}))
	h.Finish(RunSummary{}, &perf.RunReport{EventsTotal: 1})
	h.Fail(errors.New("boom"))
	tr.AttachFlight(nil, "")
	if p := tr.Progress(); p.ETAMs != -1 || p.RunsPlanned != 0 {
		t.Fatalf("nil progress = %+v", p)
	}
	if s := tr.PerfSummary(); s.RunsProfiled != 0 {
		t.Fatalf("nil perf summary = %+v", s)
	}
	if err := tr.WriteMetrics(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
	tr.StartLogging(&strings.Builder{}, time.Second)()
}

// TestProgressMath: finished runs weigh 1, in-flight runs weigh their flow
// fraction, and the ETA extrapolates from the completed fraction.
func TestProgressMath(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.Plan(4)

	for i := 0; i < 2; i++ {
		h := tr.StartRun(fmt.Sprintf("done-%d", i), 100)
		h.Update(50_000_000, 100, 100, 5000)
		h.Finish(RunSummary{Seed: int64(i), SimDurationNs: 50_000_000, Events: 5000, Flows: 100}, nil)
	}
	h := tr.StartRun("half", 10)
	h.Update(25_000_000, 8, 5, 1234)

	p := tr.Progress()
	if p.RunsPlanned != 4 || p.RunsDone != 2 || p.RunsActive != 1 {
		t.Fatalf("counts: %+v", p)
	}
	want := (2.0 + 0.5) / 4.0
	if p.FracDone != want {
		t.Fatalf("FracDone = %v, want %v", p.FracDone, want)
	}
	if p.PctDone != 100*want {
		t.Fatalf("PctDone = %v", p.PctDone)
	}
	if p.ETAMs < 0 {
		t.Fatalf("ETA unknown with fraction %v", p.FracDone)
	}
	if p.SimNs != 2*50_000_000+25_000_000 {
		t.Fatalf("SimNs = %d", p.SimNs)
	}
	if p.Events != 2*5000+1234 {
		t.Fatalf("Events = %d", p.Events)
	}
	if len(p.Active) != 1 || p.Active[0].Label != "half" || p.Active[0].Frac != 0.5 {
		t.Fatalf("active: %+v", p.Active)
	}
	if p.LastDone != "done-1" {
		t.Fatalf("LastDone = %q", p.LastDone)
	}

	// Finishing the rest drives the fraction to 1 and the ETA to 0.
	h.Update(50_000_000, 10, 10, 2000)
	h.Finish(RunSummary{Seed: 2}, nil)
	h2 := tr.StartRun("fails", 10)
	h2.Fail(errors.New("synthetic"))
	p = tr.Progress()
	if p.FracDone != 1 || p.ETAMs != 0 || p.RunsFailed != 1 {
		t.Fatalf("terminal progress: %+v", p)
	}
	if got := len(tr.Summaries()); got != 4 {
		t.Fatalf("summaries = %d, want 4", got)
	}
}

// TestProgressPlanFloor: even if Plan was never called (or undercounted), the
// denominator never drops below what the tracker has already seen.
func TestProgressPlanFloor(t *testing.T) {
	tr := NewTracker(testManifest())
	h := tr.StartRun("only", 0)
	h.Finish(RunSummary{}, nil)
	if p := tr.Progress(); p.FracDone != 1 {
		t.Fatalf("unplanned run should still complete the fraction: %+v", p)
	}
}

var metricLine = regexp.MustCompile(
	`^(?:# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (?:[-+]?(?:[0-9.eE+-]+|Inf)|NaN))$`)

// testRunData returns run telemetry whose report sweep has sealed one row
// holding vals.
func testRunData(vals map[string]float64) *telemetry.RunData {
	rd := telemetry.NewRunData(sim.NewEngine(), 0)
	for k, v := range vals {
		v := v
		rd.Sweep.Register(k, func() float64 { return v })
	}
	rd.Sweep.Snap()
	return rd
}

// TestWriteMetricsExposition: every line parses as Prometheus text format,
// expected families appear exactly once, registry keys are translated, and
// each run's registry series are its own samples, labelled with the run.
func TestWriteMetricsExposition(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.Plan(2)
	h := tr.StartRun("s/1", 10)
	h.SetRunData(testRunData(map[string]float64{
		`net.port.tx_bytes{port=l0-s1}`: 1000,
		`net.port.tx_bytes{port=l0-s2}`: 2000,
		`net.drops`:                     1,
	}))
	done := tr.StartRun("s/0", 10)
	rd := testRunData(map[string]float64{`net.drops`: 4})
	fct := rd.Registry.Histogram("fct_ms", []float64{1, 2})
	for _, v := range []float64{1, 2, 3} {
		fct.Observe(v)
	}
	done.SetRunData(rd)
	done.Finish(RunSummary{SimDurationNs: 1e7, Events: 42, Flows: 10}, nil)

	var b strings.Builder
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
		"hermes_runs_planned 2\n",
		"hermes_runs_completed_total 1\n",
		"hermes_runs_active 1\n",
		`hermes_build_info{version="v0.6.0-test",revision="deadbeef",goversion="go1.22"} 1` + "\n",
		`hermes_net_port_tx_bytes{run="s/1",port="l0-s1"} 1000` + "\n",
		`hermes_net_port_tx_bytes{run="s/1",port="l0-s2"} 2000` + "\n",
		// One sample per run: 4 from the finished run, 1 live, no sum.
		`hermes_net_drops{run="s/0"} 4` + "\n",
		`hermes_net_drops{run="s/1"} 1` + "\n",
		`hermes_fct_ms_bucket{le="1"} 1` + "\n",
		`hermes_fct_ms_bucket{le="2"} 2` + "\n",
		`hermes_fct_ms_bucket{le="+Inf"} 3` + "\n",
		"hermes_fct_ms_sum 6\n",
		"hermes_fct_ms_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", strings.TrimRight(want, "\n"), out)
		}
	}
}

// TestWriteMetricsRunLabelsUnique: runs that share a label export one
// sample per series, an in-flight run's, so no label set repeats.
func TestWriteMetricsRunLabelsUnique(t *testing.T) {
	tr := NewTracker(testManifest())
	done := tr.StartRun("s/1", 1)
	done.SetRunData(testRunData(map[string]float64{"net.drops": 4}))
	done.Finish(RunSummary{}, nil)
	for _, drops := range []float64{5, 6} {
		tr.StartRun("s/1", 1).SetRunData(testRunData(map[string]float64{"net.drops": drops}))
	}
	var b strings.Builder
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "hermes_net_drops") {
			got = append(got, line)
		}
	}
	if len(got) != 1 || got[0] == `hermes_net_drops{run="s/1"} 4` {
		t.Fatalf("samples %q, want one from an in-flight run", got)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content-type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// TestHandlerEndpoints drives the mux through httptest: progress, manifest,
// report, metrics and the no-recorder series 404.
func TestHandlerEndpoints(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.Plan(3)
	tr.Note("phase one")
	h := tr.StartRun("leaf/seed 1", 5)
	h.Update(7_000_000, 3, 2, 99)
	done := tr.StartRun("leaf/seed 0", 5)
	done.Finish(RunSummary{Seed: 0, GoodputGbps: 8.5}, nil)

	srv := httptest.NewServer(Handler(tr, 10*time.Millisecond))
	defer srv.Close()

	var p Progress
	getJSON(t, srv, "/api/progress", &p)
	if p.RunsPlanned != 3 || p.RunsDone != 1 || p.RunsActive != 1 || p.Note != "phase one" {
		t.Fatalf("progress: %+v", p)
	}
	if len(p.Active) != 1 || p.Active[0].SimNs != 7_000_000 {
		t.Fatalf("active: %+v", p.Active)
	}

	var m telemetry.Manifest
	getJSON(t, srv, "/api/manifest", &m)
	if m.VCSRevision != "deadbeef" || m.Schema != telemetry.ManifestSchema {
		t.Fatalf("manifest: %+v", m)
	}

	var rep StatusReport
	getJSON(t, srv, "/api/report", &rep)
	if len(rep.Runs) != 1 || rep.Runs[0].GoodputGbps != 8.5 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Manifest.Version != "v0.6.0-test" {
		t.Fatalf("report manifest: %+v", rep.Manifest)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type: %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(body, "hermes_runs_planned 3") {
		t.Fatalf("metrics body:\n%s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/api/series")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("series without recorder: status %d, want 404", resp.StatusCode)
	}

	// /api/checkpoints is an empty array before any write, never a 404 —
	// polling operators shouldn't have to special-case "not armed yet".
	var cks []CheckpointEvent
	getJSON(t, srv, "/api/checkpoints", &cks)
	if cks == nil || len(cks) != 0 {
		t.Fatalf("checkpoints before any write: %#v, want []", cks)
	}
	tr.RecordCheckpoint(CheckpointEvent{
		Run: "leaf/seed 1", Kind: "scheduled", SimTimeNs: 5_000_000,
		Path: "/tmp/ckpt-abc-t000005000000.ckpt", Bytes: 1234,
	})
	getJSON(t, srv, "/api/checkpoints", &cks)
	if len(cks) != 1 || cks[0].Kind != "scheduled" || cks[0].SimTimeNs != 5_000_000 {
		t.Fatalf("checkpoints after write: %+v", cks)
	}
	if cks[0].WallUnix == 0 {
		t.Fatalf("checkpoint event not wall-stamped: %+v", cks[0])
	}

	resp, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var b strings.Builder
	_, err := bufio.NewReader(resp.Body).WriteTo(&b)
	return b.String(), err
}

// newTestRecording builds a cap-4 recording holding rows 6..9 of 10.
func newTestRecording() *timeseries.Recorder {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 4)
	v := 0.0
	rec.Register("x", func() float64 { return v })
	for i := 0; i < 10; i++ {
		v = float64(i)
		rec.Snap()
	}
	return rec
}

// TestSeriesEndpoint: full snapshot on a zero cursor, empty delta when the
// cursor is current, reset delta when the cursor fell off the ring.
func TestSeriesEndpoint(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.AttachFlight(newTestRecording(), "leaf/seed 7")
	srv := httptest.NewServer(Handler(tr, 10*time.Millisecond))
	defer srv.Close()

	var full SeriesPayload
	getJSON(t, srv, "/api/series", &full)
	if full.Label != "leaf/seed 7" || full.Generation != 1 {
		t.Fatalf("payload identity: %+v", full)
	}
	if full.Rows() != 4 || full.Meta == nil || full.Reset {
		t.Fatalf("full snapshot: rows=%d meta=%v reset=%v", full.Rows(), full.Meta, full.Reset)
	}
	if full.Series["x"][0] != 6 {
		t.Fatalf("retained window starts at %v, want 6", full.Series["x"][0])
	}

	var idle SeriesPayload
	getJSON(t, srv, fmt.Sprintf("/api/series?seq=%d&transition=%d", full.Cursor.Seq, full.Cursor.Transition), &idle)
	if idle.Rows() != 0 || idle.Reset {
		t.Fatalf("idle delta: %+v", idle)
	}

	var stale SeriesPayload
	getJSON(t, srv, "/api/series?seq=2", &stale)
	if !stale.Reset || stale.Rows() != 4 || stale.TruncatedSamples != 6 {
		t.Fatalf("stale-cursor delta: reset=%v rows=%d truncated=%d",
			stale.Reset, stale.Rows(), stale.TruncatedSamples)
	}
}

// readSSE reads frames from an event stream until one "delta" event arrives
// (skipping keepalive comments), returning its id and decoded payload.
func readSSE(t *testing.T, body *bufio.Reader) (id string, p SeriesPayload) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var isDelta bool
	for time.Now().Before(deadline) {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case line == "event: delta":
			isDelta = true
		case strings.HasPrefix(line, "data: ") && isDelta:
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Fatalf("stream payload: %v", err)
			}
			return id, p
		case line == "" || strings.HasPrefix(line, ":"):
			// frame boundary or keepalive
		}
	}
	t.Fatal("no delta event within deadline")
	return
}

// TestStreamCursorResume: an SSE client that reconnects with a Last-Event-ID
// that fell off the ring gets one reset delta carrying the retained window,
// and its next cursor is clean.
func TestStreamCursorResume(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.AttachFlight(newTestRecording(), "leaf/seed 7")
	srv := httptest.NewServer(Handler(tr, 5*time.Millisecond))
	defer srv.Close()

	// Fresh connect: the first delta is the full retained window.
	req, _ := http.NewRequest("GET", srv.URL+"/api/series/stream", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type: %q", ct)
	}
	id, p := readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if p.Rows() != 4 || p.Reset {
		t.Fatalf("fresh stream delta: rows=%d reset=%v", p.Rows(), p.Reset)
	}
	if id != "10:0:1" {
		t.Fatalf("event id = %q, want 10:0:1", id)
	}

	// Reconnect claiming a position the ring has already evicted.
	req, _ = http.NewRequest("GET", srv.URL+"/api/series/stream", nil)
	req.Header.Set("Last-Event-ID", "3:0:1")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, p = readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if !p.Reset {
		t.Fatal("resume past truncation: expected reset=true")
	}
	if p.Rows() != 4 || p.Series["x"][0] != 6 {
		t.Fatalf("resume delta: rows=%d first=%v", p.Rows(), p.Series["x"])
	}
	if p.Cursor.Seq != 10 {
		t.Fatalf("resume cursor: %+v", p.Cursor)
	}

	// Reconnect at the live edge: the stream stays quiet (keepalives only)
	// until the recording is replaced by a new generation.
	req, _ = http.NewRequest("GET", srv.URL+"/api/series/stream", nil)
	req.Header.Set("Last-Event-ID", "10:0:1")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachFlight(newTestRecording(), "spine/seed 8")
	_, p = readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if p.Label != "spine/seed 8" || p.Generation != 2 {
		t.Fatalf("generation switch: %+v", p)
	}
	if p.Rows() != 4 {
		t.Fatalf("new recording delta: rows=%d", p.Rows())
	}
}

// TestServerLifecycle: NewServer binds, serves, reports a usable URL, closes.
func TestServerLifecycle(t *testing.T) {
	tr := NewTracker(testManifest())
	s, err := NewServer("127.0.0.1:0", tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" || !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("addr=%q url=%q", s.Addr(), s.URL())
	}
	resp, err := http.Get(s.URL() + "/api/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(s.URL() + "/api/progress"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestProgressLine: the -progress text surface.
func TestProgressLine(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.Plan(2)
	h := tr.StartRun("a/seed 0", 4)
	h.Finish(RunSummary{SimDurationNs: 2_000_000}, nil)
	line := tr.ProgressLine()
	if !strings.Contains(line, "1/2 runs (50.0%)") {
		t.Fatalf("progress line: %q", line)
	}
	var b strings.Builder
	stop := tr.StartLogging(&b, time.Hour)
	stop()
	stop() // idempotent
	if !strings.Contains(b.String(), "1/2 runs") {
		t.Fatalf("StartLogging final line: %q", b.String())
	}
}
