package perf

import (
	"runtime"
	"sort"
)

// Observatory aggregates the perf reports of finished runs so a long-lived
// process (a bench sweep, a chaos matrix) can expose cumulative simulator
// performance: total events by kind, throughput of the last run, and a live
// Go runtime snapshot. The zero value is empty and ready. It has no lock of
// its own: the status tracker that holds one serializes AddRun and Summary
// under the lock it already takes for each finished run.
type Observatory struct {
	runs      uint64
	events    uint64
	byKind    map[string]uint64
	queuePeak int
	peakHeap  uint64
	simNs     int64
	wallNs    int64
	last      *RunReport
}

// AddRun folds one finished run's report into the aggregate.
func (o *Observatory) AddRun(r *RunReport) {
	if r == nil {
		return
	}
	if o.byKind == nil {
		o.byKind = map[string]uint64{}
	}
	o.runs++
	o.events += r.EventsTotal
	for _, ks := range r.ByKind {
		o.byKind[ks.Kind] += ks.Count
	}
	if r.QueuePeak > o.queuePeak {
		o.queuePeak = r.QueuePeak
	}
	if r.PeakHeapBytes > o.peakHeap {
		o.peakHeap = r.PeakHeapBytes
	}
	o.simNs += r.SimNs
	o.wallNs += r.WallNs
	o.last = r
}

// RuntimeSnapshot is a point-in-time view of the Go runtime, taken at
// Summary/Metrics time so the observatory's export is always live even
// between runs.
type RuntimeSnapshot struct {
	HeapBytes  uint64
	GCCycles   uint32
	GCPauseNs  uint64
	Goroutines int
	GOMAXPROCS int
	NumCPU     int
	GoVersion  string
}

// ReadRuntimeSnapshot samples the Go runtime now.
func ReadRuntimeSnapshot() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		HeapBytes:  ms.HeapAlloc,
		GCCycles:   ms.NumGC,
		GCPauseNs:  ms.PauseTotalNs,
		Goroutines: runtime.NumGoroutine(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// Summary is the /api/perf payload: cumulative run aggregates plus a live
// runtime snapshot and the last run's full report.
type Summary struct {
	RunsProfiled  uint64
	EventsTotal   uint64
	EventsByKind  map[string]uint64 `json:",omitempty"`
	QueuePeak     int
	PeakHeapBytes uint64
	SimNs         int64
	WallNs        int64
	SimPerWall    float64
	Runtime       RuntimeSnapshot
	LastRun       *RunReport `json:",omitempty"`
}

// Summary returns the aggregate view with a fresh runtime snapshot.
func (o *Observatory) Summary() Summary {
	s := Summary{
		RunsProfiled:  o.runs,
		EventsTotal:   o.events,
		QueuePeak:     o.queuePeak,
		PeakHeapBytes: o.peakHeap,
		SimNs:         o.simNs,
		WallNs:        o.wallNs,
		Runtime:       ReadRuntimeSnapshot(),
		LastRun:       o.last,
	}
	if o.wallNs > 0 {
		s.SimPerWall = float64(o.simNs) / float64(o.wallNs)
	}
	if len(o.byKind) > 0 {
		s.EventsByKind = make(map[string]uint64, len(o.byKind))
		for k, v := range o.byKind {
			s.EventsByKind[k] = v
		}
	}
	return s
}

// Metric is one exposition-ready sample of the perf.* family. Names use the
// repo's dotted convention (perf.events_total); the exporter sanitizes them
// into Prometheus form.
type Metric struct {
	Name   string
	Type   string // "counter" or "gauge"
	Labels map[string]string
	Value  float64
}

// Metrics returns the summary as the perf.* family in deterministic order:
// aggregate run counters first, then per-kind counters sorted by kind, then
// the live runtime gauges.
func (s Summary) Metrics() []Metric {
	m := []Metric{
		{Name: "perf.runs_profiled_total", Type: "counter", Value: float64(s.RunsProfiled)},
		{Name: "perf.events_total", Type: "counter", Value: float64(s.EventsTotal)},
	}
	kinds := make([]string, 0, len(s.EventsByKind))
	for k := range s.EventsByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		m = append(m, Metric{
			Name: "perf.events_by_kind_total", Type: "counter",
			Labels: map[string]string{"kind": k},
			Value:  float64(s.EventsByKind[k]),
		})
	}
	m = append(m,
		Metric{Name: "perf.queue_peak", Type: "gauge", Value: float64(s.QueuePeak)},
		Metric{Name: "perf.heap_peak_bytes", Type: "gauge", Value: float64(s.PeakHeapBytes)},
		Metric{Name: "perf.sim_per_wall", Type: "gauge", Value: s.SimPerWall},
		Metric{Name: "perf.heap_bytes", Type: "gauge", Value: float64(s.Runtime.HeapBytes)},
		Metric{Name: "perf.gc_cycles_total", Type: "counter", Value: float64(s.Runtime.GCCycles)},
		Metric{Name: "perf.gc_pause_seconds_total", Type: "counter", Value: float64(s.Runtime.GCPauseNs) / 1e9},
		Metric{Name: "perf.goroutines", Type: "gauge", Value: float64(s.Runtime.Goroutines)},
		Metric{Name: "perf.gomaxprocs", Type: "gauge", Value: float64(s.Runtime.GOMAXPROCS)},
	)
	if s.LastRun != nil && s.LastRun.CPUUtilization > 0 {
		m = append(m, Metric{Name: "perf.cpu_utilization", Type: "gauge", Value: s.LastRun.CPUUtilization})
	}
	return m
}
