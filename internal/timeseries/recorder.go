package timeseries

import (
	"sync"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Defaults for the flight recorder.
const (
	// DefaultInterval is the sampling period when none is configured:
	// fine enough to see queue buildup at 10 Gbps, coarse enough that a
	// 2 s run fits the default ring.
	DefaultInterval = 100 * sim.Microsecond
	// DefaultCap bounds the retained samples per series.
	DefaultCap = 8192
	// MaxTransitions bounds a flight ring's path-state transition log.
	MaxTransitions = 65536
)

// Schema identifies the recording layout; bump on breaking changes.
const Schema = "hermes-timeseries/v1"

// Meta identifies the run a recording came from. All fields are simulation
// values, so two runs of the same (config, seed) produce identical metas.
type Meta struct {
	Schema        string  `json:"schema"`
	Scheme        string  `json:"scheme,omitempty"`
	Workload      string  `json:"workload,omitempty"`
	Load          float64 `json:"load,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Failure       string  `json:"failure,omitempty"`
	IntervalNs    int64   `json:"interval_ns"`
	Cap           int     `json:"cap"`
	SimDurationNs int64   `json:"sim_duration_ns,omitempty"`
}

// Transition is one Hermes path-state change: the rack monitor at Leaf
// re-characterized (Dst, Path) from From to To because of Cause.
type Transition struct {
	AtNs  int64  `json:"at_ns"`
	Leaf  int    `json:"leaf"`
	Dst   int    `json:"dst"`
	Path  int    `json:"path"`
	From  string `json:"from"`
	To    string `json:"to"`
	Cause string `json:"cause"`
}

// Transition causes. Verdict transitions carry "verdict:" plus the
// telemetry audit reason (blackhole, probe-loss, silent-drop).
const (
	CauseAck         = "ack"          // RTT/ECN sample echoed by a data ACK
	CauseProbe       = "probe"        // RTT/ECN sample from an active probe
	CauseTimeout     = "timeout"      // RTO-driven signal intake
	CauseHoldExpired = "hold-expired" // failure quarantine lapsed at a sweep
	CauseVerdict     = "verdict:"     // prefix; suffixed with the audit reason
)

// Rate says how a rate probe turns its counter's change d over one sample
// interval of iv nanoseconds into a sample. The zero Rate is a plain probe:
// the sample is the value read.
type Rate uint8

const (
	// Value samples the value read (no rate).
	Value Rate = iota
	// PerInterval samples d: events per sample interval.
	PerInterval
	// Fraction samples d / iv: the share of the interval a nanosecond
	// counter advanced, such as a port's busy time (link utilization; can
	// exceed 1 when a serialization slot straddles the sample edge).
	Fraction
	// Gbps samples d * 8 / iv: a byte counter as Gbit/s.
	Gbps
)

// probe is one registered pull-style sampler. A rate probe keeps the
// counter's previous reading in last; col caches the probe's column index
// (-1 until its first sample).
type probe struct {
	name string
	fn   func() float64
	rate Rate
	last float64
	col  int
}

// sample evaluates the probe for one row at interval iv.
func (p *probe) sample(iv float64) float64 {
	v := p.fn()
	if p.rate == Value {
		return v
	}
	d := v - p.last
	p.last = v
	switch p.rate {
	case Fraction:
		return d / iv
	case Gbps:
		return d * 8 / iv
	}
	return d
}

// Recorder is the simulator's one periodic sampler. Registered probes are
// sampled every Interval of virtual time into aligned series; a flight
// ring also keeps the Hermes path-state transition log. A run's flight
// ring is a ring-capped Recorder (NewRecorder); the report sweep, the Table
// 2 visibility sampler and the Fig 2-4 queue samplers are uncapped ones
// (NewSweep).
//
// A nil *Recorder is the disabled state: every method is a no-op, so
// instrumentation sites can call unconditionally.
//
// The recorder is written by exactly one goroutine (the simulation), but may
// be read concurrently by status-server goroutines through the accessors and
// SnapshotSince. mu seals each row: Snap evaluates every probe first, then
// publishes the complete row under the lock, so a concurrent reader never
// observes a torn (appended-but-half-filled) sample.
type Recorder struct {
	Eng      *sim.Engine
	Interval sim.Time // sampling period (<= 0 picks DefaultInterval)
	Cap      int      // retained samples per series (<= 0 picks DefaultCap)

	// Transitions is the path-state transition log the Hermes monitors
	// write, capped at MaxTransitions; nil (disarmed) on an uncapped
	// recorder.
	Transitions *Log[Transition]

	// Meta is stamped by the run harness before export.
	Meta Meta

	// clock runs Snap every Interval once Start arms it.
	clock *sim.Observer

	mu       sync.Mutex
	cols     Columns
	probes   []probe
	probeIdx map[string]int
	tickFns  []func()
	onSample []func(atNs int64)
	scratch  []float64 // probe values staged outside the lock
}

// NewRecorder builds an enabled flight ring on the engine with defaulted
// interval and sample cap, and a transition log.
func NewRecorder(eng *sim.Engine, interval sim.Time, cap int) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if cap <= 0 {
		cap = DefaultCap
	}
	r := &Recorder{Eng: eng, Interval: interval, Cap: cap,
		Transitions: NewLog[Transition](MaxTransitions)}
	r.cols.Cap = cap
	return r
}

// NewSweep builds an uncapped recorder: every sample is kept.
func NewSweep(eng *sim.Engine, interval sim.Time) *Recorder {
	return &Recorder{Eng: eng, Interval: interval}
}

// Register adds (or replaces) a pull-style sampler evaluated once per
// sample instant, in registration order. A probe may carry state — it is
// called exactly once per retained instant, so read-and-reset samplers
// (interval peaks) are well-defined.
func (r *Recorder) Register(name string, fn func() float64) {
	r.RegisterRate(name, fn, Value)
}

// RegisterRate adds (or replaces) a probe that samples the change of the
// cumulative counter fn over each interval, scaled as rate says. The
// recorder holds the previous reading: Start sets it from the counter, so
// the first sample covers only the first interval even when the counter
// did not start at zero.
func (r *Recorder) RegisterRate(name string, fn func() float64, rate Rate) {
	if r == nil || fn == nil {
		return
	}
	p := probe{name: name, fn: fn, rate: rate, col: -1}
	if r.clock != nil && rate != Value {
		p.last = fn()
	}
	if i, ok := r.probeIdx[name]; ok {
		r.probes[i] = p
		return
	}
	if r.probeIdx == nil {
		r.probeIdx = map[string]int{}
	}
	r.probeIdx[name] = len(r.probes)
	r.probes = append(r.probes, p)
}

// AtTick registers a hook run at the start of every sample instant, before
// probes are read. The monitor transition sweeps hang here so quarantine
// expiries are caught within one interval.
func (r *Recorder) AtTick(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.tickFns = append(r.tickFns, fn)
}

// OnSample registers a hook run on the simulation goroutine after every
// sealed sample row, with the row's instant. The alert evaluator hangs here:
// by the time the hook runs the row is published and the recorder lock is
// released, so the hook may call LatestValue and the snapshot accessors
// freely.
func (r *Recorder) OnSample(fn func(atNs int64)) {
	if r == nil || fn == nil {
		return
	}
	r.onSample = append(r.onSample, fn)
}

// NumProbes returns the number of registered probes. Only call from the
// simulation goroutine.
func (r *Recorder) NumProbes() int {
	if r == nil {
		return 0
	}
	return len(r.probes)
}

// ProbeNames returns the registered probe names in registration order. Only
// call from the simulation goroutine (the slice is appended to by Register).
func (r *Recorder) ProbeNames() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.name
	}
	return out
}

// LatestValue returns the named series' value at the most recent sample
// row, or ok=false when the series does not exist or no row has been
// appended yet. Safe for concurrent use with Snap.
func (r *Recorder) LatestValue(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cols.Len() == 0 {
		return 0, false
	}
	i, ok := r.cols.index[name]
	if !ok {
		return 0, false
	}
	return r.cols.latest(i), true
}

// Latest returns every series' value at the most recent sample row, keyed
// by series name, or nil before the first row. It reads the sealed row and
// evaluates no probe, so it is safe for concurrent use with Snap.
func (r *Recorder) Latest() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cols.Len() == 0 {
		return nil
	}
	out := make(map[string]float64, len(r.cols.names))
	for i, name := range r.cols.names {
		out[name] = r.cols.latest(i)
	}
	return out
}

// Start takes each rate probe's counter reading as its baseline and arms
// an engine observer (sim.Engine.Every) that samples every Interval from
// now. Sampling is not an engine event, so a recorder cannot change the run
// it records.
func (r *Recorder) Start() {
	if r == nil || r.Eng == nil {
		return
	}
	if r.Interval <= 0 {
		r.Interval = DefaultInterval
	}
	for i := range r.probes {
		if p := &r.probes[i]; p.rate != Value {
			p.last = p.fn()
		}
	}
	r.clock = r.Eng.Every(r.Interval, r.Snap)
}

// Stop ends sampling: no sample instant runs after it.
func (r *Recorder) Stop() {
	if r != nil {
		r.clock.Stop()
	}
}

// Snap takes one sample immediately (also used for the final sweep at run
// end so the last interval always appears).
//
// Tick hooks and probes run before the lock is taken. They read simulation
// state and change only what observation itself keeps (an interval peak, the
// transition log), which concurrent snapshot readers never touch. The
// completed row is then published atomically, so SnapshotSince observes only
// sealed rows.
func (r *Recorder) Snap() {
	if r == nil || r.Eng == nil {
		return
	}
	for _, fn := range r.tickFns {
		fn()
	}
	r.scratch = r.scratch[:0]
	iv := float64(r.Interval)
	for i := range r.probes {
		r.scratch = append(r.scratch, r.probes[i].sample(iv))
	}
	at := int64(r.Eng.Now())
	r.mu.Lock()
	r.cols.Append(at)
	for i := range r.probes {
		p := &r.probes[i]
		if p.col < 0 {
			p.col = r.cols.column(p.name)
		}
		r.cols.set(p.col, r.scratch[i])
	}
	r.mu.Unlock()
	// Sample hooks (the alert evaluator) run after the row is sealed and
	// the lock released: they read the row back through LatestValue.
	for _, fn := range r.onSample {
		fn(at)
	}
}

// Len returns the number of retained sample instants.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Len()
}

// TruncatedSamples returns the instants discarded at the ring cap.
func (r *Recorder) TruncatedSamples() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Truncated()
}

// Times returns the retained sample instants in chronological order.
func (r *Recorder) Times() []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Times()
}

// Names returns the series names in sorted order.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Names()
}

// Series returns one named series aligned with Times (nil when absent).
func (r *Recorder) Series(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cols.Series(name)
}
