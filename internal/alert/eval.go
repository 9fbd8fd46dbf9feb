package alert

import (
	"sort"
	"strconv"
	"sync"

	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Alert lifecycle states.
const (
	StatePending   = "pending"   // breached, hold not yet elapsed
	StateFiring    = "firing"    // breached for at least the hold
	StateResolved  = "resolved"  // fired, then the condition cleared
	StateCancelled = "cancelled" // breach cleared before the hold elapsed
)

// Caps on the evaluator's logs: lifecycle edges and episodes.
const (
	MaxEvents = 4096
	MaxAlerts = 1024
)

// Alert is one episode of a rule breaching on one series.
type Alert struct {
	Rule     string   `json:"rule"`
	Series   string   `json:"series"`
	Severity Severity `json:"severity"`
	State    string   `json:"state"`
	// PendingNs is the simulation instant of the first breaching sample.
	PendingNs int64 `json:"pending_ns"`
	// FiringNs is when the hold elapsed (0 = never fired).
	FiringNs int64 `json:"firing_ns,omitempty"`
	// ResolvedNs is when the episode ended, by resolution or cancellation
	// (0 = still open at run end).
	ResolvedNs int64 `json:"resolved_ns,omitempty"`
	// Value is the sample that tripped the rule.
	Value float64 `json:"value"`
	// Peak is the most extreme value observed during the episode (minimum
	// for dip/below, maximum otherwise).
	Peak float64 `json:"peak"`
	// Baseline is the frozen pre-breach baseline (dip/spike only).
	Baseline float64 `json:"baseline,omitempty"`
	// Cause describes the triggering sample, deterministically formatted.
	Cause string `json:"cause"`
}

// Event is one lifecycle edge, in simulation order.
type Event struct {
	AtNs     int64    `json:"at_ns"`
	Rule     string   `json:"rule"`
	Series   string   `json:"series"`
	Severity Severity `json:"severity"`
	From     string   `json:"from,omitempty"`
	To       string   `json:"to"`
	Value    float64  `json:"value"`
}

// Report is the end-of-run alert summary, embedded in Result.Alerts.
type Report struct {
	Schema     string  `json:"schema"`
	IntervalNs int64   `json:"interval_ns"`
	Rules      []Rule  `json:"rules"`
	Alerts     []Alert `json:"alerts,omitempty"`
	Events     []Event `json:"events,omitempty"`
	// Fired counts episodes that reached firing; Resolved those that then
	// cleared. Pending/Firing count episodes still open at run end.
	Fired         int `json:"fired"`
	Resolved      int `json:"resolved"`
	Pending       int `json:"pending,omitempty"`
	Firing        int `json:"firing,omitempty"`
	Cancelled     int `json:"cancelled,omitempty"`
	DroppedEvents int `json:"dropped_events,omitempty"`
	DroppedAlerts int `json:"dropped_alerts,omitempty"`
}

// Snapshot is a live view for the status plane.
type Snapshot struct {
	Alerts []Alert `json:"alerts"`
	// Events holds the lifecycle edges from the requested cursor on;
	// NextEvent is the cursor for the following poll.
	Events        []Event `json:"events"`
	NextEvent     int     `json:"next_event"`
	Pending       int     `json:"pending"`
	Firing        int     `json:"firing"`
	DroppedEvents int     `json:"dropped_events,omitempty"`
}

// seriesState is the per-(rule, series) evaluation state. It is touched
// only on the simulation goroutine.
type seriesState struct {
	ruleIdx  int
	series   string
	episode  int // index into episodes, -1 when no open episode
	ring     []float64
	ringPos  int
	ringFull bool
	baseline float64 // frozen while an episode is open (dip/spike)
	prev     float64
	prevNs   int64
	hasPrev  bool
	dropped  bool // episode suppressed at the cap; cleared when breach ends
}

// Evaluator applies a rule set to a recorder at every sample boundary.
// Episodes are edited in place as they change state, so mu guards them
// together with the edges that drove them: status-server goroutines
// snapshot both consistently mid-run. All other state belongs to the
// simulation goroutine.
type Evaluator struct {
	rec        *timeseries.Recorder
	rules      []Rule
	intervalNs int64

	states   []*seriesState
	stateIdx map[string]*seriesState // key: ruleIdx + "\x00" + series
	nProbes  int                     // probe count at last glob resolution

	mu       sync.Mutex
	episodes *timeseries.Log[Alert]
	events   *timeseries.Log[Event]
}

// New builds an evaluator over rec. Every rule is validated. The evaluator
// is registered on the recorder's sample hook — callers only need to keep
// the returned handle for Snapshot/Report.
func New(rec *timeseries.Recorder, rules []Rule) (*Evaluator, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	e := &Evaluator{
		rec:        rec,
		rules:      rules,
		intervalNs: int64(rec.Interval),
		stateIdx:   map[string]*seriesState{},
		nProbes:    -1,
		episodes:   timeseries.NewLog[Alert](MaxAlerts),
		events:     timeseries.NewLog[Event](MaxEvents),
	}
	rec.OnSample(e.Sample)
	return e, nil
}

// Rules returns the armed rule set.
func (e *Evaluator) Rules() []Rule { return e.rules }

// stateKey builds the per-(rule, series) index key.
func stateKey(ruleIdx int, series string) string {
	return strconv.Itoa(ruleIdx) + "\x00" + series
}

// resolve (re)binds every rule to its matching series. Exact names and
// absent rules bind unconditionally (absence is itself the signal); globs
// bind to the currently registered probes, re-checked whenever the probe
// count changes so late-registered series still get watched.
func (e *Evaluator) resolve() {
	if e.rec.NumProbes() == e.nProbes {
		return
	}
	sorted := e.rec.ProbeNames()
	e.nProbes = len(sorted)
	sort.Strings(sorted)
	for i, r := range e.rules {
		var matched []string
		if r.Op == OpAbsent || !hasGlob(r.Series) {
			matched = []string{r.Series}
		} else {
			for _, n := range sorted {
				if matchGlob(r.Series, n) {
					matched = append(matched, n)
				}
			}
		}
		for _, series := range matched {
			key := stateKey(i, series)
			if _, ok := e.stateIdx[key]; ok {
				continue
			}
			st := &seriesState{ruleIdx: i, series: series, episode: -1}
			if r.Op == OpDip || r.Op == OpSpike {
				n := int(r.WindowNs / e.intervalNs)
				if n < 1 {
					n = 1
				}
				st.ring = make([]float64, n)
			}
			e.stateIdx[key] = st
			e.states = append(e.states, st)
		}
	}
}

func hasGlob(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '*' {
			return true
		}
	}
	return false
}

// Sample evaluates every rule against the just-sealed row. It runs on the
// simulation goroutine via Recorder.OnSample.
func (e *Evaluator) Sample(atNs int64) {
	e.resolve()
	for _, st := range e.states {
		e.evalState(st, atNs)
	}
}

func (e *Evaluator) evalState(st *seriesState, atNs int64) {
	r := e.rules[st.ruleIdx]
	v, ok := e.rec.LatestValue(st.series)

	breach := false
	baseline, rate := 0.0, 0.0
	switch r.Op {
	case OpAbove:
		breach = ok && v > r.Value
	case OpBelow:
		breach = ok && v < r.Value
	case OpRateAbove:
		if ok && st.hasPrev && atNs > st.prevNs {
			rate = (v - st.prev) / (float64(atNs-st.prevNs) / 1e9)
			breach = rate > r.Value
		}
		if ok {
			st.prev, st.prevNs, st.hasPrev = v, atNs, true
		}
	case OpDip, OpSpike:
		open := st.episode >= 0
		if open {
			baseline = st.baseline
		} else if st.ringFull {
			sum := 0.0
			for _, x := range st.ring {
				sum += x
			}
			baseline = sum / float64(len(st.ring))
		}
		if (open || st.ringFull) && baseline > r.MinValue {
			if r.Op == OpDip {
				breach = ok && v < (1-r.Value)*baseline
			} else {
				breach = ok && v > (1+r.Value)*baseline
			}
		}
	case OpAbsent:
		breach = !ok
	}

	e.lifecycle(st, r, atNs, v, rate, baseline, breach)

	// Feed the trailing baseline only with healthy samples outside an
	// episode, so a long dip cannot drag its own baseline down.
	if (r.Op == OpDip || r.Op == OpSpike) && ok && !breach && st.episode < 0 {
		st.ring[st.ringPos] = v
		st.ringPos++
		if st.ringPos == len(st.ring) {
			st.ringPos = 0
			st.ringFull = true
		}
	}
}

// cause describes a breaching sample of value v (with its rate for a
// rate-above rule, and its baseline for dip and spike). Only an opening
// episode keeps its cause, so it is formatted then and never per sample.
func cause(r Rule, series string, v, rate, baseline float64) string {
	switch r.Op {
	case OpAbove:
		return series + "=" + fmtF(v) + " above " + fmtF(r.Value)
	case OpBelow:
		return series + "=" + fmtF(v) + " below " + fmtF(r.Value)
	case OpRateAbove:
		return series + " rate " + fmtF(rate) + "/s above " + fmtF(r.Value) + "/s"
	case OpDip:
		return series + "=" + fmtF(v) + " dipped below " + fmtF((1-r.Value)*baseline) + " (baseline " + fmtF(baseline) + ")"
	case OpSpike:
		return series + "=" + fmtF(v) + " spiked above " + fmtF((1+r.Value)*baseline) + " (baseline " + fmtF(baseline) + ")"
	}
	return series + " absent from the recorder"
}

// lifecycle advances the episode state machine for one sample.
func (e *Evaluator) lifecycle(st *seriesState, r Rule, atNs int64, v, rate, baseline float64, breach bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if breach {
		if st.episode < 0 {
			if st.dropped {
				return
			}
			i := e.episodes.Add(Alert{
				Rule:      r.Name,
				Series:    st.series,
				Severity:  r.severity(),
				State:     StatePending,
				PendingNs: atNs,
				Value:     v,
				Peak:      v,
				Baseline:  baseline,
				Cause:     cause(r, st.series, v, rate, baseline),
			})
			if i < 0 {
				st.dropped = true
				return
			}
			st.baseline = baseline
			st.episode = i
			e.events.Add(Event{AtNs: atNs, Rule: r.Name, Series: st.series, Severity: r.severity(), To: StatePending, Value: v})
		}
		ep := e.episodes.At(st.episode)
		if r.Op == OpDip || r.Op == OpBelow {
			if v < ep.Peak {
				ep.Peak = v
			}
		} else if v > ep.Peak {
			ep.Peak = v
		}
		if ep.State == StatePending && atNs-ep.PendingNs >= r.ForNs {
			ep.State = StateFiring
			ep.FiringNs = atNs
			e.events.Add(Event{AtNs: atNs, Rule: r.Name, Series: st.series, Severity: r.severity(), From: StatePending, To: StateFiring, Value: v})
		}
		return
	}
	st.dropped = false
	if st.episode < 0 {
		return
	}
	ep := e.episodes.At(st.episode)
	to := StateResolved
	if ep.State == StatePending {
		to = StateCancelled
	}
	from := ep.State
	ep.State = to
	ep.ResolvedNs = atNs
	e.events.Add(Event{AtNs: atNs, Rule: r.Name, Series: st.series, Severity: r.severity(), From: from, To: to, Value: v})
	st.episode = -1
}

// SnapshotSince returns the current episodes plus the lifecycle events from
// cursor sinceEvent on. Safe for concurrent use with Sample.
func (e *Evaluator) SnapshotSince(sinceEvent int) Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s Snapshot
	s.Alerts, _, _ = e.episodes.Since(0)
	s.Events, s.NextEvent, s.DroppedEvents = e.events.Since(sinceEvent)
	for _, a := range s.Alerts {
		switch a.State {
		case StatePending:
			s.Pending++
		case StateFiring:
			s.Firing++
		}
	}
	return s
}

// Report summarizes the run for Result.Alerts. Call after the run ends
// (it is also safe mid-run; the returned value is a copy).
func (e *Evaluator) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := &Report{
		Schema:     Schema,
		IntervalNs: e.intervalNs,
		Rules:      append([]Rule(nil), e.rules...),
	}
	rep.Alerts, _, rep.DroppedAlerts = e.episodes.Since(0)
	rep.Events, _, rep.DroppedEvents = e.events.Since(0)
	for _, a := range rep.Alerts {
		if a.FiringNs != 0 {
			rep.Fired++
		}
		switch a.State {
		case StatePending:
			rep.Pending++
		case StateFiring:
			rep.Firing++
		case StateResolved:
			rep.Resolved++
		case StateCancelled:
			rep.Cancelled++
		}
	}
	return rep
}

// fmtF formats a float deterministically for cause strings.
func fmtF(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
