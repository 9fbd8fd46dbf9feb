package statusd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// newTestWatchdog drives one armed evaluator through a short recording:
// series "x" breaches >5 twice, the first episode resolves and the second is
// still firing when the run ends (samples at t=1ms..5ms: 0, 10, 10, 0, 10).
func newTestWatchdog(t *testing.T) *alert.Evaluator {
	t.Helper()
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 0)
	vals := []float64{0, 10, 10, 0, 10}
	i := 0
	rec.Register("x", func() float64 {
		v := vals[len(vals)-1]
		if i < len(vals) {
			v = vals[i]
		}
		i++
		return v
	})
	ev, err := alert.New(rec, []alert.Rule{{
		Name: "x-high", Series: "x", Op: alert.OpAbove, Value: 5,
		Severity: alert.SeverityCritical,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	eng.Run(sim.Time(int64(len(vals))*int64(sim.Millisecond) + 1))
	return ev
}

// TestAlertsEndpoint: 404 before any evaluator attaches, then the full
// snapshot, the ?since event cursor, and the generation bump on re-attach.
func TestAlertsEndpoint(t *testing.T) {
	tr := NewTracker(testManifest())
	srv := httptest.NewServer(Handler(tr, 10*time.Millisecond))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/api/alerts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("alerts without evaluator: status %d, want 404", resp.StatusCode)
	}

	tr.AttachAlerts(newTestWatchdog(t), "leaf/seed 7")

	var full AlertsPayload
	getJSON(t, srv, "/api/alerts", &full)
	if full.Label != "leaf/seed 7" || full.Generation != 1 {
		t.Fatalf("payload identity: %+v", full)
	}
	if len(full.Alerts) != 2 || full.Firing != 1 || full.Pending != 0 {
		t.Fatalf("snapshot: alerts=%d firing=%d pending=%d", len(full.Alerts), full.Firing, full.Pending)
	}
	if full.Alerts[0].Rule != "x-high" || full.Alerts[0].State != alert.StateResolved {
		t.Fatalf("first episode: %+v", full.Alerts[0])
	}
	if len(full.Events) == 0 || full.NextEvent != len(full.Events) {
		t.Fatalf("events=%d next=%d", len(full.Events), full.NextEvent)
	}

	// Polling from the returned cursor yields no new events but keeps the
	// episode list.
	var idle AlertsPayload
	getJSON(t, srv, fmt.Sprintf("/api/alerts?since=%d", full.NextEvent), &idle)
	if len(idle.Events) != 0 || idle.NextEvent != full.NextEvent || len(idle.Alerts) != 2 {
		t.Fatalf("idle delta: events=%d next=%d alerts=%d", len(idle.Events), idle.NextEvent, len(idle.Alerts))
	}

	// An out-of-range cursor clamps to a full replay rather than erroring.
	var replay AlertsPayload
	getJSON(t, srv, "/api/alerts?since=9999", &replay)
	if len(replay.Events) != len(full.Events) {
		t.Fatalf("clamped replay: events=%d, want %d", len(replay.Events), len(full.Events))
	}

	// A new run's evaluator replaces the old one and bumps the generation.
	tr.AttachAlerts(newTestWatchdog(t), "spine/seed 8")
	var next AlertsPayload
	getJSON(t, srv, "/api/alerts", &next)
	if next.Label != "spine/seed 8" || next.Generation != 2 {
		t.Fatalf("after re-attach: %+v", next)
	}
}

// TestMetricsAlertExposition: armed trackers export Prometheus-convention
// ALERTS samples for open episodes plus the pending/firing gauges, and every
// line still parses as text exposition format.
func TestMetricsAlertExposition(t *testing.T) {
	tr := NewTracker(testManifest())

	var before strings.Builder
	if err := tr.WriteMetrics(&before); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.String(), "ALERTS") {
		t.Fatal("unarmed tracker exports ALERTS")
	}

	tr.AttachAlerts(newTestWatchdog(t), "leaf/seed 7")
	var b strings.Builder
	if err := tr.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !metricLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# HELP ALERTS ",
		"# TYPE ALERTS gauge\n",
		`ALERTS{alertname="x-high",severity="critical",state="firing",series="x"} 1` + "\n",
		"hermes_alerts_pending 0\n",
		"hermes_alerts_firing 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", strings.TrimRight(want, "\n"), out)
		}
	}
	// Only OPEN episodes become ALERTS samples; the resolved one must not.
	if strings.Contains(out, `state="resolved"`) {
		t.Errorf("resolved episode leaked into ALERTS:\n%s", out)
	}
}

// readAlertSSE reads frames until one "alerts" event arrives, returning its
// id and decoded payload.
func readAlertSSE(t *testing.T, body *bufio.Reader) (id string, p AlertsPayload) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var isAlerts bool
	for time.Now().Before(deadline) {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case line == "event: alerts":
			isAlerts = true
		case strings.HasPrefix(line, "data: ") && isAlerts:
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Fatalf("stream payload: %v", err)
			}
			return id, p
		case line == "" || strings.HasPrefix(line, ":"):
			// frame boundary or keepalive
		}
	}
	t.Fatal("no alerts event within deadline")
	return
}

// TestAlertsStream: a fresh SSE client gets the full event backlog, and a
// client resumed at the live edge wakes when a new run's evaluator replaces
// the followed one.
func TestAlertsStream(t *testing.T) {
	tr := NewTracker(testManifest())
	tr.AttachAlerts(newTestWatchdog(t), "leaf/seed 7")
	srv := httptest.NewServer(Handler(tr, 5*time.Millisecond))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/api/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type: %q", ct)
	}
	id, p := readAlertSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if p.Label != "leaf/seed 7" || len(p.Events) == 0 {
		t.Fatalf("fresh stream event: %+v", p)
	}
	if id != fmt.Sprintf("%d:1", p.NextEvent) {
		t.Fatalf("event id = %q, want %d:1", id, p.NextEvent)
	}

	// Resume at the live edge, then swap in a new run: the stream must emit
	// the new generation with its cursor restarted from zero.
	req, _ := http.NewRequest("GET", srv.URL+"/api/alerts/stream", nil)
	req.Header.Set("Last-Event-ID", id)
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachAlerts(newTestWatchdog(t), "spine/seed 8")
	_, p = readAlertSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if p.Label != "spine/seed 8" || p.Generation != 2 {
		t.Fatalf("generation switch: %+v", p)
	}
	if len(p.Events) == 0 {
		t.Fatal("new generation event carries no backlog")
	}
}

// TestSnapshotSinceConcurrentSwap exercises the flight-recorder cursor
// contract under the race detector: HTTP-style readers keep polling
// SnapshotSince with per-generation cursors while runs seal rows and
// AttachFlight swaps recorders (bumping the generation), mirroring what the
// status server does during a matrix run. Run with -race to make it bite.
func TestSnapshotSinceConcurrentSwap(t *testing.T) {
	const (
		generations = 5
		rowsPerRun  = 200
		ringCap     = 8
	)
	tr := NewTracker(testManifest())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursors := map[uint64]timeseries.Cursor{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, label, gen := tr.Flight()
				if rec == nil {
					continue
				}
				if label == "" {
					t.Error("attached recording has no label")
					return
				}
				cur := cursors[gen]
				d := rec.SnapshotSince(cur)
				if d.Cursor.Seq < cur.Seq {
					t.Errorf("gen %d: cursor went backwards %d -> %d", gen, cur.Seq, d.Cursor.Seq)
					return
				}
				if n := d.Rows(); n > ringCap {
					t.Errorf("gen %d: delta has %d rows, ring caps at %d", gen, n, ringCap)
					return
				}
				for name, vals := range d.Series {
					if len(vals) != d.Rows() {
						t.Errorf("gen %d: series %s has %d values for %d rows", gen, name, len(vals), d.Rows())
						return
					}
				}
				cursors[gen] = d.Cursor
			}
		}()
	}

	for g := 0; g < generations; g++ {
		eng := sim.NewEngine()
		rec := timeseries.NewRecorder(eng, sim.Millisecond, ringCap)
		v := 0.0
		rec.Register("x", func() float64 { return v })
		rec.Register("y", func() float64 { return 2 * v })
		tr.AttachFlight(rec, fmt.Sprintf("swap/seed %d", g))
		for i := 0; i < rowsPerRun; i++ {
			v = float64(i)
			rec.Snap()
		}
	}
	close(stop)
	wg.Wait()
}
