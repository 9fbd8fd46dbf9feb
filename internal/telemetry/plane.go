package telemetry

import "github.com/hermes-repro/hermes/internal/timeseries"

// Sink names an export of a declared metric.
type Sink uint8

const (
	// SinkReport is the run report's sweep: counter totals and series
	// sampled every TelemetryIntervalNs (1 ms by default).
	SinkReport Sink = 1 << iota
	// SinkFlight is the flight ring, sampled every TimeSeriesIntervalNs
	// (100 us by default).
	SinkFlight
)

// Metric is one metric declaration: its name, the sinks that export its
// value under that name, and optionally a flight series derived from the
// value's change.
type Metric struct {
	Name  string
	Sinks Sink
	// Rate, when set, names a flight series that samples the value's
	// change over each flight interval, scaled as Per says. The value must
	// then be a cumulative counter.
	Rate string
	Per  timeseries.Rate
}

// Plane is where a run's layers declare their metrics, each once. Its sinks
// are the report sweep (Run) and the flight ring (Flight); an unarmed sink
// is nil. A declaration registers a probe only on the armed sinks that
// export it, so the zero Plane declares nothing.
type Plane struct {
	Run    *RunData
	Flight *timeseries.Recorder
}

// Armed reports whether any sink in s is armed.
func (p Plane) Armed(s Sink) bool {
	return s&SinkReport != 0 && p.Run != nil || s&SinkFlight != 0 && p.Flight != nil
}

// Wants reports whether an armed sink exports m. Callers that build a probe
// per entity check it first, so an unexported metric costs no closure.
func (p Plane) Wants(m Metric) bool {
	return p.Armed(m.Sinks) || m.Rate != "" && p.Flight != nil
}

// Declare registers read on every armed sink that exports m, with labels
// appended to each name as Key renders them.
func (p Plane) Declare(m Metric, read func() float64, labels ...string) {
	if p.Armed(m.Sinks) {
		name := Key(m.Name, labels...)
		if m.Sinks&SinkReport != 0 && p.Run != nil {
			p.Run.Sweep.Register(name, read)
		}
		if m.Sinks&SinkFlight != 0 {
			p.Flight.Register(name, read)
		}
	}
	if m.Rate != "" && p.Flight != nil {
		p.Flight.RegisterRate(Key(m.Rate, labels...), read, m.Per)
	}
}

// Histogram returns the named push histogram, or nil when the report sink
// is unarmed.
func (p Plane) Histogram(name string, bounds []float64) *Histogram {
	if p.Run == nil {
		return nil
	}
	return p.Run.Registry.Histogram(name, bounds)
}

// Probe declares one metric read off an owner of type T: a port, a
// transport, a rack monitor. A layer lists its probes in a table, one row
// per metric, in flight registration order.
type Probe[T any] struct {
	Metric
	Read func(T) float64
}

// DeclareAll declares every probe in probes over owner, with labels
// appended to each name. Probes no armed sink exports cost nothing: their
// closures are never built.
func DeclareAll[T any](pl Plane, owner T, probes []Probe[T], labels ...string) {
	for _, p := range probes {
		if pl.Wants(p.Metric) {
			read := p.Read
			pl.Declare(p.Metric, func() float64 { return read(owner) }, labels...)
		}
	}
}
