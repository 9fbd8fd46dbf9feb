// Package statusd is the live run observatory: a Tracker that aggregates
// progress, metrics, the perf aggregate and flight-recorder access across
// the runs of one process, and an HTTP Server that exposes it while
// simulations execute:
//
//   - /api/progress: completion and ETA;
//   - /api/report: per-run summaries so far;
//   - /api/manifest: build provenance;
//   - /api/series and /api/series/stream: flight-recorder snapshots and
//     SSE deltas;
//   - /api/alerts and /api/alerts/stream: SLO watchdog state and SSE
//     lifecycle edges;
//   - /api/perf: the perf aggregate of the finished profiled runs;
//   - /api/checkpoints: checkpoint files written so far;
//   - /metrics: Prometheus text exposition.
//
// The tracker is the process's one live sink. Simulations publish to it at
// scheduling-slice boundaries and run end, never from the per-packet hot
// path, and /metrics reads each run's registry values from the rows its
// report sweep has already sealed. Readers only copy state under the
// tracker's and the recorders' locks, so attaching a tracker (or serving it
// over HTTP) cannot perturb results: reports are byte-identical with the
// status plane on or off. A nil *Tracker is the disabled state; every
// method is a no-op.
package statusd

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// RunSummary is the completed-run record kept for /api/report.
type RunSummary struct {
	Label         string  `json:"label"`
	Scheme        string  `json:"scheme,omitempty"`
	Workload      string  `json:"workload,omitempty"`
	Scenario      string  `json:"scenario,omitempty"`
	Load          float64 `json:"load,omitempty"`
	Seed          int64   `json:"seed"`
	SimDurationNs int64   `json:"sim_duration_ns"`
	Events        uint64  `json:"events"`
	Flows         int     `json:"flows"`
	Unfinished    int     `json:"unfinished,omitempty"`
	GoodputGbps   float64 `json:"goodput_gbps"`
	MeanMs        float64 `json:"fct_mean_ms"`
	P99Ms         float64 `json:"fct_p99_ms"`
	WallMs        int64   `json:"wall_ms"`
	Err           string  `json:"error,omitempty"`
}

// ActiveRun is one in-flight simulation as /api/progress reports it.
type ActiveRun struct {
	Label        string  `json:"label"`
	SimNs        int64   `json:"sim_ns"`
	FlowsStarted int64   `json:"flows_started"`
	FlowsDone    int64   `json:"flows_done"`
	FlowsTotal   int64   `json:"flows_total"`
	Frac         float64 `json:"frac"`
	WallMs       int64   `json:"wall_ms"`
}

// Progress is the /api/progress payload.
type Progress struct {
	StartUnix int64  `json:"start_unix"`
	WallMs    int64  `json:"wall_ms"`
	Note      string `json:"note,omitempty"`

	RunsPlanned int `json:"runs_planned"`
	RunsDone    int `json:"runs_done"`
	RunsFailed  int `json:"runs_failed,omitempty"`
	RunsActive  int `json:"runs_active"`

	Active   []ActiveRun `json:"active,omitempty"`
	LastDone string      `json:"last_done,omitempty"`

	// FracDone weights finished runs 1 and in-flight runs by their flow
	// progress; PctDone is the same as a percentage.
	FracDone float64 `json:"frac_done"`
	PctDone  float64 `json:"pct_done"`
	// ETAMs extrapolates wall time per completed fraction (-1 = unknown).
	ETAMs int64 `json:"eta_ms"`

	// SimNs and Events accumulate over completed plus in-flight runs;
	// SimPerWall is virtual seconds simulated per wall second.
	SimNs      int64   `json:"sim_ns"`
	Events     uint64  `json:"events"`
	SimPerWall float64 `json:"sim_per_wall"`
}

// RunHandle is one simulation's channel into the tracker. The owning run
// goroutine calls SetRunData/Update/Finish/Fail; everything is cheap enough
// for slice-boundary cadence. A nil handle is a no-op.
type RunHandle struct {
	t     *Tracker
	label string
	start time.Time

	simNs        atomic.Int64
	flowsStarted atomic.Int64
	flowsDone    atomic.Int64
	flowsTotal   int64
	events       atomic.Uint64

	rd *telemetry.RunData // the run's telemetry, if any; set under t.mu
}

// Tracker aggregates progress and metrics for every run that attaches to it.
// Safe for concurrent use: many runs publish while HTTP handlers read.
type Tracker struct {
	manifest  telemetry.Manifest
	startWall time.Time

	planned atomic.Int64
	done    atomic.Int64
	failed  atomic.Int64

	mu          sync.Mutex
	note        string
	active      map[*RunHandle]struct{}
	lastDone    string
	lastRow     map[string]float64 // lastDone's final report-sweep row
	summaries   []RunSummary
	doneSimNs   int64
	doneEvents  uint64
	doneFlows   int64
	doneHists   map[string]telemetry.HistogramStats
	perf        perf.Observatory
	flight      *timeseries.Recorder
	flightLabel string
	flightGen   uint64 // bumped per attach so streams notice replacement
	alerts      *alert.Evaluator
	alertsLabel string
	alertsGen   uint64 // bumped per attach so streams notice replacement
	checkpoints []CheckpointEvent
}

// NewTracker builds an enabled tracker stamped with the build manifest.
func NewTracker(m telemetry.Manifest) *Tracker {
	return &Tracker{
		manifest:  m,
		startWall: time.Now(),
		active:    map[*RunHandle]struct{}{},
		doneHists: map[string]telemetry.HistogramStats{},
	}
}

// Manifest returns the build manifest the tracker was created with.
func (t *Tracker) Manifest() telemetry.Manifest {
	if t == nil {
		return telemetry.Manifest{}
	}
	return t.manifest
}

// Plan announces n upcoming runs (cumulative across sweeps).
func (t *Tracker) Plan(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.planned.Add(int64(n))
}

// Note sets the free-form phase description shown in /api/progress.
func (t *Tracker) Note(s string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.note = s
	t.mu.Unlock()
}

// StartRun registers an in-flight simulation. flowsTotal sizes the intra-run
// progress fraction (<= 0 leaves it unknown).
func (t *Tracker) StartRun(label string, flowsTotal int) *RunHandle {
	if t == nil {
		return nil
	}
	h := &RunHandle{t: t, label: label, start: time.Now(), flowsTotal: int64(flowsTotal)}
	t.mu.Lock()
	t.active[h] = struct{}{}
	t.mu.Unlock()
	return h
}

// Update publishes the run's position: virtual time reached, flows started
// and finished, events fired. Called at scheduling-slice boundaries.
func (h *RunHandle) Update(simNs, flowsStarted, flowsDone int64, events uint64) {
	if h == nil {
		return
	}
	h.simNs.Store(simNs)
	h.flowsStarted.Store(flowsStarted)
	h.flowsDone.Store(flowsDone)
	h.events.Store(events)
}

// SetRunData makes rd the run's telemetry: while the run is in flight,
// /metrics exports the latest row its report sweep has sealed, and Finish
// takes the final row and the histograms. Call it once, at setup.
func (h *RunHandle) SetRunData(rd *telemetry.RunData) {
	if h == nil || rd == nil {
		return
	}
	h.t.mu.Lock()
	h.rd = rd
	h.t.mu.Unlock()
}

func (h *RunHandle) frac() float64 {
	if h.flowsTotal <= 0 {
		return 0
	}
	f := float64(h.flowsDone.Load()) / float64(h.flowsTotal)
	if f > 1 {
		f = 1
	}
	return f
}

// Finish retires the run as successful. Its summary joins /api/report, its
// perf report (nil for an unprofiled run) joins the perf aggregate, its
// histograms accumulate into /metrics, and its report sweep's final row
// replaces the previous finished run's there.
func (h *RunHandle) Finish(sum RunSummary, pr *perf.RunReport) {
	if h == nil {
		return
	}
	t := h.t
	sum.Label = h.label
	sum.WallMs = time.Since(h.start).Milliseconds()
	// Only this goroutine sets h.rd, so it reads it without the lock.
	var row map[string]float64
	var hists map[string]telemetry.HistogramStats
	if h.rd != nil {
		row = h.rd.Sweep.Latest()
		hists = h.rd.Registry.Histograms()
	}
	t.mu.Lock()
	delete(t.active, h)
	t.lastDone = h.label
	t.lastRow = row
	t.summaries = append(t.summaries, sum)
	t.doneSimNs += sum.SimDurationNs
	t.doneEvents += sum.Events
	t.doneFlows += int64(sum.Flows)
	for k, hs := range hists {
		t.doneHists[k] = mergeHist(t.doneHists[k], hs)
	}
	t.perf.AddRun(pr)
	t.mu.Unlock()
	t.done.Add(1)
}

// Fail retires the run as errored.
func (h *RunHandle) Fail(err error) {
	if h == nil {
		return
	}
	t := h.t
	sum := RunSummary{Label: h.label, WallMs: time.Since(h.start).Milliseconds()}
	if err != nil {
		sum.Err = err.Error()
	}
	t.mu.Lock()
	delete(t.active, h)
	t.summaries = append(t.summaries, sum)
	t.mu.Unlock()
	t.failed.Add(1)
}

// mergeHist accumulates one run's histogram into the process aggregate.
func mergeHist(acc, hs telemetry.HistogramStats) telemetry.HistogramStats {
	if acc.Count == 0 {
		return hs
	}
	if hs.Count == 0 {
		return acc
	}
	if hs.Min < acc.Min {
		acc.Min = hs.Min
	}
	if hs.Max > acc.Max {
		acc.Max = hs.Max
	}
	acc.Count += hs.Count
	acc.Sum += hs.Sum
	acc.Inf += hs.Inf
	if len(acc.Buckets) == len(hs.Buckets) {
		for i := range acc.Buckets {
			acc.Buckets[i].Count += hs.Buckets[i].Count
		}
	}
	return acc
}

// AttachFlight makes rec the recording served by /api/series and streamed by
// /api/series/stream (latest attach wins; runs without a flight recorder
// leave the previous recording in place for post-run inspection).
func (t *Tracker) AttachFlight(rec *timeseries.Recorder, label string) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.flight = rec
	t.flightLabel = label
	t.flightGen++
	t.mu.Unlock()
}

// PerfSummary returns the perf aggregate of the profiled runs finished so
// far, with a live Go runtime snapshot: the /api/perf payload and the
// source of the perf.* metrics family. RunsProfiled is 0 until a run with
// Config.Perf has finished.
func (t *Tracker) PerfSummary() perf.Summary {
	if t == nil {
		return perf.Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perf.Summary()
}

// AttachAlerts makes ev the alert evaluator served by /api/alerts, streamed
// by /api/alerts/stream and exported as ALERTS on /metrics (latest attach
// wins; runs without alerts leave the previous evaluator in place for
// post-run inspection).
func (t *Tracker) AttachAlerts(ev *alert.Evaluator, label string) {
	if t == nil || ev == nil {
		return
	}
	t.mu.Lock()
	t.alerts = ev
	t.alertsLabel = label
	t.alertsGen++
	t.mu.Unlock()
}

// Alerts returns the attached alert evaluator, its label and an attach
// generation (readers use the generation to notice replacement mid-stream).
func (t *Tracker) Alerts() (*alert.Evaluator, string, uint64) {
	if t == nil {
		return nil, "", 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alerts, t.alertsLabel, t.alertsGen
}

// CheckpointEvent is one checkpoint write as /api/checkpoints reports it:
// which run wrote it, whether it was scheduled or an interrupt capture, the
// virtual instant, and where the file landed.
type CheckpointEvent struct {
	Run       string `json:"run"`
	Kind      string `json:"kind"` // "scheduled" or "interrupt"
	SimTimeNs int64  `json:"sim_time_ns"`
	Path      string `json:"path"`
	Bytes     int    `json:"bytes"`
	WallUnix  int64  `json:"wall_unix"`
}

// RecordCheckpoint appends one checkpoint write to the process log served by
// /api/checkpoints.
func (t *Tracker) RecordCheckpoint(ev CheckpointEvent) {
	if t == nil {
		return
	}
	ev.WallUnix = time.Now().Unix()
	t.mu.Lock()
	t.checkpoints = append(t.checkpoints, ev)
	t.mu.Unlock()
}

// Checkpoints returns a copy of the checkpoint-write log.
func (t *Tracker) Checkpoints() []CheckpointEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]CheckpointEvent(nil), t.checkpoints...)
}

// Flight returns the currently attached recording, its label and an attach
// generation (readers use the generation to notice replacement mid-stream).
func (t *Tracker) Flight() (*timeseries.Recorder, string, uint64) {
	if t == nil {
		return nil, "", 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flight, t.flightLabel, t.flightGen
}

// Progress assembles the /api/progress payload.
func (t *Tracker) Progress() Progress {
	if t == nil {
		return Progress{ETAMs: -1}
	}
	now := time.Now()
	p := Progress{
		StartUnix:   t.startWall.Unix(),
		WallMs:      now.Sub(t.startWall).Milliseconds(),
		RunsPlanned: int(t.planned.Load()),
		RunsDone:    int(t.done.Load()),
		RunsFailed:  int(t.failed.Load()),
		ETAMs:       -1,
	}

	t.mu.Lock()
	p.Note = t.note
	p.LastDone = t.lastDone
	p.SimNs = t.doneSimNs
	p.Events = t.doneEvents
	var activeFrac float64
	for h := range t.active {
		a := ActiveRun{
			Label:        h.label,
			SimNs:        h.simNs.Load(),
			FlowsStarted: h.flowsStarted.Load(),
			FlowsDone:    h.flowsDone.Load(),
			FlowsTotal:   h.flowsTotal,
			Frac:         h.frac(),
			WallMs:       now.Sub(h.start).Milliseconds(),
		}
		p.Active = append(p.Active, a)
		p.SimNs += a.SimNs
		p.Events += h.events.Load()
		activeFrac += a.Frac
	}
	t.mu.Unlock()

	sort.Slice(p.Active, func(i, j int) bool { return p.Active[i].Label < p.Active[j].Label })
	p.RunsActive = len(p.Active)
	planned := p.RunsPlanned
	if floor := p.RunsDone + p.RunsFailed + p.RunsActive; planned < floor {
		planned = floor
	}
	if planned > 0 {
		p.FracDone = (float64(p.RunsDone+p.RunsFailed) + activeFrac) / float64(planned)
		if p.FracDone > 1 {
			p.FracDone = 1
		}
		p.PctDone = 100 * p.FracDone
		if p.FracDone > 0 && p.FracDone < 1 {
			p.ETAMs = int64(float64(p.WallMs) * (1 - p.FracDone) / p.FracDone)
		}
		if p.FracDone >= 1 {
			p.ETAMs = 0
		}
	}
	if p.WallMs > 0 {
		p.SimPerWall = float64(p.SimNs) / 1e6 / float64(p.WallMs)
	}
	return p
}

// Summaries returns a copy of the completed-run records.
func (t *Tracker) Summaries() []RunSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]RunSummary(nil), t.summaries...)
}

// StatusReport is the /api/report payload: what the process has produced so
// far, refreshing as runs complete.
type StatusReport struct {
	Manifest telemetry.Manifest `json:"manifest"`
	Progress Progress           `json:"progress"`
	Runs     []RunSummary       `json:"runs"`
}

// Report assembles the /api/report payload.
func (t *Tracker) Report() StatusReport {
	return StatusReport{
		Manifest: t.Manifest(),
		Progress: t.Progress(),
		Runs:     t.Summaries(),
	}
}

// StartLogging prints one plain-text progress line to w every interval until
// the returned stop function is called (which prints a final line). This is
// the -progress surface: useful exactly when no status server is attached.
func (t *Tracker) StartLogging(w io.Writer, every time.Duration) (stop func()) {
	if t == nil || w == nil {
		return func() {}
	}
	if every <= 0 {
		every = 5 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(w, t.ProgressLine())
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			fmt.Fprintln(w, t.ProgressLine())
		})
	}
}

// ProgressLine renders one human-readable progress line.
func (t *Tracker) ProgressLine() string {
	p := t.Progress()
	eta := "-"
	if p.ETAMs >= 0 {
		eta = (time.Duration(p.ETAMs) * time.Millisecond).Round(time.Second).String()
	}
	line := fmt.Sprintf("progress: %d/%d runs (%.1f%%) eta %s sim %.1fms @%.2fx",
		p.RunsDone, p.RunsPlanned, p.PctDone, eta, float64(p.SimNs)/1e6, p.SimPerWall)
	if p.RunsFailed > 0 {
		line += fmt.Sprintf(" failed=%d", p.RunsFailed)
	}
	if len(p.Active) > 0 {
		line += " active " + p.Active[0].Label
		if len(p.Active) > 1 {
			line += fmt.Sprintf(" (+%d)", len(p.Active)-1)
		}
	}
	return line
}
