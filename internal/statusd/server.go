package statusd

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// DefaultPollInterval is how often the SSE stream checks the live recording
// for news when the handler is built with interval <= 0.
const DefaultPollInterval = 250 * time.Millisecond

// SeriesPayload wraps a flight-recorder delta with the identity of the
// recording it came from (/api/series and every SSE "delta" event).
type SeriesPayload struct {
	// Label names the run whose recording is attached; Generation bumps
	// every time a new run's recorder replaces it, so stream consumers can
	// tell "same recording, more rows" from "new recording, fresh cursor".
	Label      string `json:"label"`
	Generation uint64 `json:"generation"`
	timeseries.Delta
}

// Handler builds the status-plane HTTP mux for a tracker. pollInterval
// paces the SSE stream (<= 0 picks DefaultPollInterval). Exposed separately
// from Server so tests can drive it through httptest.
func Handler(t *Tracker, pollInterval time.Duration) http.Handler {
	if pollInterval <= 0 {
		pollInterval = DefaultPollInterval
	}
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v) //nolint:errcheck // client gone; nothing to do
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "hermes status plane — %s\n\n", t.Manifest().String())
		fmt.Fprintln(w, "GET /api/progress       runs done/total, per-run flow progress, ETA")
		fmt.Fprintln(w, "GET /api/report         manifest + progress + completed-run summaries")
		fmt.Fprintln(w, "GET /api/manifest       build and VCS provenance")
		fmt.Fprintln(w, "GET /api/series         flight-recorder snapshot (?seq=N&transition=M for deltas)")
		fmt.Fprintln(w, "GET /api/series/stream  the same as live SSE deltas (resumes via Last-Event-ID)")
		fmt.Fprintln(w, "GET /api/alerts         SLO watchdog state (?since=N for event deltas)")
		fmt.Fprintln(w, "GET /api/alerts/stream  alert lifecycle edges as live SSE deltas")
		fmt.Fprintln(w, "GET /api/perf           perf aggregate of the finished runs with Config.Perf")
		fmt.Fprintln(w, "GET /api/checkpoints    checkpoint files written so far (runs with Config.Checkpoint)")
		fmt.Fprintln(w, "GET /metrics            Prometheus text exposition, registry series per run (ALERTS when armed)")
	})
	mux.HandleFunc("/api/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, t.Progress())
	})
	mux.HandleFunc("/api/manifest", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, t.Manifest())
	})
	mux.HandleFunc("/api/report", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, t.Report())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.WriteMetrics(w) //nolint:errcheck // client gone; nothing to do
	})
	mux.HandleFunc("/api/series", func(w http.ResponseWriter, r *http.Request) {
		rec, label, gen := t.Flight()
		if rec == nil {
			http.Error(w, `{"error":"no flight recorder attached (runs record when TimeSeries or a Scenario is enabled)"}`,
				http.StatusNotFound)
			return
		}
		cur := cursorFromQuery(r)
		writeJSON(w, SeriesPayload{Label: label, Generation: gen, Delta: rec.SnapshotSince(cur)})
	})
	mux.HandleFunc("/api/series/stream", func(w http.ResponseWriter, r *http.Request) {
		streamSeries(w, r, t, pollInterval)
	})
	mux.HandleFunc("/api/alerts", func(w http.ResponseWriter, r *http.Request) {
		ev, label, gen := t.Alerts()
		if ev == nil {
			http.Error(w, `{"error":"no alert evaluator attached (runs watch when Config.Alerts is set)"}`,
				http.StatusNotFound)
			return
		}
		since := 0
		if v := r.URL.Query().Get("since"); v != "" {
			since, _ = strconv.Atoi(v)
		}
		writeJSON(w, AlertsPayload{Label: label, Generation: gen, Snapshot: ev.SnapshotSince(since)})
	})
	mux.HandleFunc("/api/alerts/stream", func(w http.ResponseWriter, r *http.Request) {
		streamAlerts(w, r, t, pollInterval)
	})
	mux.HandleFunc("/api/checkpoints", func(w http.ResponseWriter, r *http.Request) {
		// Always a JSON array (possibly empty): an operator polling a soak
		// run shouldn't have to distinguish "none yet" from "not armed".
		cks := t.Checkpoints()
		if cks == nil {
			cks = []CheckpointEvent{}
		}
		writeJSON(w, cks)
	})
	mux.HandleFunc("/api/perf", func(w http.ResponseWriter, r *http.Request) {
		s := t.PerfSummary()
		if s.RunsProfiled == 0 {
			http.Error(w, `{"error":"no profiled run has finished (runs profile when Config.Perf is set)"}`,
				http.StatusNotFound)
			return
		}
		writeJSON(w, s)
	})
	return mux
}

// cursorFromQuery reads ?seq=N&transition=M (both default 0).
func cursorFromQuery(r *http.Request) timeseries.Cursor {
	var c timeseries.Cursor
	if v := r.URL.Query().Get("seq"); v != "" {
		c.Seq, _ = strconv.ParseUint(v, 10, 64)
	}
	if v := r.URL.Query().Get("transition"); v != "" {
		c.Transition, _ = strconv.Atoi(v)
	}
	return c
}

// parseEventID decodes the "seq:transition:generation" SSE event id.
func parseEventID(id string) (timeseries.Cursor, uint64, bool) {
	parts := strings.Split(id, ":")
	if len(parts) != 3 {
		return timeseries.Cursor{}, 0, false
	}
	seq, err1 := strconv.ParseUint(parts[0], 10, 64)
	tr, err2 := strconv.Atoi(parts[1])
	gen, err3 := strconv.ParseUint(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return timeseries.Cursor{}, 0, false
	}
	return timeseries.Cursor{Seq: seq, Transition: tr}, gen, true
}

// serveSSE runs one Server-Sent Events stream until the client goes away:
// it sends the headers, then calls step every pollInterval. step writes
// any news to w as events and reports whether there was news; after four
// polls without news a keepalive comment goes out instead.
func serveSSE(w http.ResponseWriter, r *http.Request, pollInterval time.Duration, step func() bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	idle := 0
	for {
		if step() {
			flusher.Flush()
			idle = 0
		}
		idle++
		if idle >= 4 {
			// Keep proxies and clients convinced the stream is alive.
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
			idle = 0
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// streamSeries serves the flight recording as Server-Sent Events: one
// "delta" event whenever the recording has sealed new rows or transitions,
// keepalive comments otherwise. Event ids are "seq:transition:generation";
// a reconnecting client resumes from Last-Event-ID (or ?seq=&transition=),
// and a cursor that fell off the ring yields one delta with reset=true
// carrying the whole retained window.
func streamSeries(w http.ResponseWriter, r *http.Request, t *Tracker, pollInterval time.Duration) {
	cur := cursorFromQuery(r)
	var haveGen uint64
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		if c, gen, ok := parseEventID(id); ok {
			cur, haveGen = c, gen
		}
	}
	serveSSE(w, r, pollInterval, func() bool {
		rec, label, gen := t.Flight()
		if rec == nil {
			return false
		}
		if haveGen != 0 && gen != haveGen {
			// A new run's recording replaced the one the client was
			// following; restart its cursor from the beginning.
			cur = timeseries.Cursor{}
		}
		d := rec.SnapshotSince(cur)
		news := d.Rows() > 0 || len(d.Transitions) > 0 || d.Reset || haveGen != gen
		if news {
			if payload, err := json.Marshal(SeriesPayload{Label: label, Generation: gen, Delta: d}); err == nil {
				fmt.Fprintf(w, "id: %d:%d:%d\nevent: delta\ndata: %s\n\n",
					d.Cursor.Seq, d.Cursor.Transition, gen, payload)
			}
		}
		cur, haveGen = d.Cursor, gen
		return news
	})
}

// AlertsPayload wraps a watchdog snapshot with the identity of the run it
// came from (/api/alerts and every alerts-stream SSE event).
type AlertsPayload struct {
	Label      string `json:"label"`
	Generation uint64 `json:"generation"`
	alert.Snapshot
}

// parseAlertEventID decodes the "nextEvent:generation" SSE event id used by
// the alerts stream.
func parseAlertEventID(id string) (int, uint64, bool) {
	parts := strings.Split(id, ":")
	if len(parts) != 2 {
		return 0, 0, false
	}
	next, err1 := strconv.Atoi(parts[0])
	gen, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return next, gen, true
}

// streamAlerts serves the SLO watchdog as Server-Sent Events: one "alerts"
// event whenever new lifecycle edges appeared (or a new run's evaluator
// replaced the followed one, which restarts the event cursor), keepalive
// comments otherwise. Event ids are "nextEvent:generation"; a reconnecting
// client resumes from Last-Event-ID or ?since=N.
func streamAlerts(w http.ResponseWriter, r *http.Request, t *Tracker, pollInterval time.Duration) {
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		since, _ = strconv.Atoi(v)
	}
	var haveGen uint64
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		if next, gen, ok := parseAlertEventID(id); ok {
			since, haveGen = next, gen
		}
	}
	serveSSE(w, r, pollInterval, func() bool {
		ev, label, gen := t.Alerts()
		if ev == nil {
			return false
		}
		if haveGen != 0 && gen != haveGen {
			since = 0
		}
		s := ev.SnapshotSince(since)
		news := len(s.Events) > 0 || haveGen != gen
		if news {
			if payload, err := json.Marshal(AlertsPayload{Label: label, Generation: gen, Snapshot: s}); err == nil {
				fmt.Fprintf(w, "id: %d:%d\nevent: alerts\ndata: %s\n\n",
					s.NextEvent, gen, payload)
			}
		}
		since, haveGen = s.NextEvent, gen
		return news
	})
}

// Server is the embeddable HTTP status server: NewServer binds the address
// and serves a Tracker until Close.
type Server struct {
	T *Tracker

	ln  net.Listener
	srv *http.Server
}

// NewServer listens on addr (e.g. ":8080", "127.0.0.1:0") and serves the
// tracker's status plane in a background goroutine.
func NewServer(addr string, t *Tracker) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statusd: listen %s: %w", addr, err)
	}
	s := &Server{T: t, ln: ln, srv: &http.Server{Handler: Handler(t, 0)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	addr := s.Addr()
	if addr == "" {
		return ""
	}
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
			addr = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return "http://" + addr
}

// Close stops the listener and interrupts in-flight streams.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
