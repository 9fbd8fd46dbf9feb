package chaos

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Applied is one activation of an injector: when it came up, when it was
// cleared (-1 = still active at run end), and what it touched. The recovery
// analysis scores each Applied independently.
type Applied struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Label   string `json:"label"`
	Cycle   int    `json:"cycle"` // 0 for one-shots, cycle number for repeats
	OnsetNs int64  `json:"onset_ns"`
	ClearNs int64  `json:"clear_ns"` // -1 while active at run end
	Scope   Scope  `json:"scope"`
}

// Runner schedules a Scenario's events on the simulation engine and keeps
// the activation log. Install before traffic starts; Finish after the run
// to collect the events that never fired because the run ended first.
type Runner struct {
	Env      Env
	Scenario *Scenario

	// Log records every activation in onset order.
	Log []*Applied

	// OnEvent, when set, observes every activation (cleared=false, right
	// after Apply) and clear (cleared=true, right after Revert) — the hook
	// the facade uses to stamp chaos events into the telemetry audit log.
	OnEvent func(a *Applied, cleared bool)

	active map[string]*Applied
	fired  []bool
}

// NewRunner builds a runner for the scenario over the fabric.
func NewRunner(env Env, s *Scenario) *Runner {
	return &Runner{Env: env, Scenario: s, active: map[string]*Applied{}}
}

// Install schedules the events of a scenario that passed Validate, so no
// event fires while it is still active and no clear finds it inactive.
func (r *Runner) Install(eng *sim.Engine) {
	s := r.Scenario
	r.fired = make([]bool, len(s.Events))
	for i := range s.Events {
		i := i
		eng.AtKind(s.Events[i].At, sim.KindChaos, func() { r.fire(eng, i, 0) })
	}
}

func (r *Runner) fire(eng *sim.Engine, i, cycle int) {
	ev := &r.Scenario.Events[i]
	r.fired[i] = true
	now := eng.Now()

	if ev.Clear != "" {
		r.clear(ev.Clear, now)
		return
	}

	ev.Inject.Apply(r.Env)
	rec := &Applied{
		Name: ev.Name, Kind: ev.Inject.Kind(), Label: ev.Inject.Label(),
		Cycle: cycle, OnsetNs: int64(now), ClearNs: -1, Scope: ev.Inject.Scope(),
	}
	r.Log = append(r.Log, rec)
	r.active[ev.Name] = rec
	if r.OnEvent != nil {
		r.OnEvent(rec, false)
	}
	if ev.Duration > 0 {
		eng.ScheduleKind(ev.Duration, sim.KindChaos, func() { r.clear(ev.Name, eng.Now()) })
	}

	if ev.Every > 0 && (ev.Count == 0 || cycle+1 < ev.Count) {
		eng.ScheduleKind(ev.Every, sim.KindChaos, func() { r.fire(eng, i, cycle+1) })
	}
}

func (r *Runner) clear(name string, now sim.Time) {
	rec := r.active[name]
	ev := r.eventByName(name)
	ev.Inject.Revert(r.Env)
	rec.ClearNs = int64(now)
	delete(r.active, name)
	if r.OnEvent != nil {
		r.OnEvent(rec, true)
	}
}

func (r *Runner) eventByName(name string) *Event {
	for i := range r.Scenario.Events {
		if r.Scenario.Events[i].Name == name && r.Scenario.Events[i].Inject != nil {
			return &r.Scenario.Events[i]
		}
	}
	return nil
}

// ActiveCount returns the number of currently applied injections.
func (r *Runner) ActiveCount() int { return len(r.active) }

// Dump is the runner's checkpoint-visible state: how many timeline events
// have fired, the full activation log so far, and the currently active
// scopes sorted by name. Everything in it is deterministic per seed.
type Dump struct {
	FiredEvents int        `json:"fired_events"`
	Log         []*Applied `json:"log"`
	Active      []*Applied `json:"active"`
}

// Dump captures the runner state; read-only. Active entries alias the Log
// records (same ClearNs=-1 view the recovery analysis sees).
func (r *Runner) Dump() *Dump {
	d := &Dump{}
	for _, f := range r.fired {
		if f {
			d.FiredEvents++
		}
	}
	d.Log = append(d.Log, r.Log...)
	for _, rec := range r.Log {
		if rec.ClearNs < 0 {
			d.Active = append(d.Active, rec)
		}
	}
	return d
}

// Finish reports every event that never fired: it was scheduled past the
// end of the run, a scenario bug the caller must surface and the one no
// check before the run can know. Repeating events only need their first
// cycle to have fired.
func (r *Runner) Finish(now sim.Time) []error {
	var errs []error
	for i := range r.Scenario.Events {
		if r.fired[i] {
			continue
		}
		ev := &r.Scenario.Events[i]
		what := ev.Name
		if ev.Clear != "" {
			what = "clear of " + ev.Clear
		}
		errs = append(errs, fmt.Errorf(
			"chaos: scenario %q: event %q scheduled at %d never fired (run ended at %d)",
			r.Scenario.Name, what, ev.At, now))
	}
	return errs
}
