package chaos

import (
	"fmt"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Event is one timeline entry of a Scenario: inject a failure at At (and
// optionally auto-clear it Duration later, or repeat it every Every), or
// clear a previously injected one by name.
type Event struct {
	// At is the virtual onset time.
	At sim.Time
	// Name identifies the activation for Clear references and the recovery
	// report. Empty names are auto-filled ("ev0", "ev1", ...) at install.
	Name string
	// Inject is the failure to apply; nil for clear-only events.
	Inject Injector
	// Clear names the inject event to revert; exclusive with Inject. An
	// event takes at most one Clear, and none when it has a Duration.
	Clear string
	// Duration auto-clears the injection this long after each onset
	// (0 = stays until an explicit Clear or run end). Required for
	// repeating events so cycles never overlap.
	Duration sim.Time
	// Every repeats the injection with this period (0 = one-shot). A flap
	// is Every+Duration: down for Duration out of each Every.
	Every sim.Time
	// Count bounds the repetitions when Every > 0 (0 = forever).
	Count int
}

// Scenario is a named failure timeline, deterministic per run seed.
type Scenario struct {
	Name   string
	Events []Event
}

// At builds an inject event.
func At(t sim.Time, name string, inj Injector) Event {
	return Event{At: t, Name: name, Inject: inj}
}

// ClearAt builds a clear event for a named injection.
func ClearAt(t sim.Time, name string) Event {
	return Event{At: t, Clear: name}
}

// Validate names each anonymous inject event ("ev0", "ev1", ...) and
// checks the timeline's shape: onsets, repeats and clear references. It
// needs no fabric. A scenario must pass it before Runner.Install, so a
// misconfigured one fails before the run starts instead of mid-run.
func (s *Scenario) Validate() error {
	for i := range s.Events {
		if s.Events[i].Inject != nil && s.Events[i].Name == "" {
			s.Events[i].Name = fmt.Sprintf("ev%d", i)
		}
	}
	names := map[string]int{}
	for i, ev := range s.Events {
		where := fmt.Sprintf("chaos: scenario %q event %d", s.Name, i)
		if ev.At < 0 {
			return fmt.Errorf("%s: negative onset %d", where, ev.At)
		}
		if ev.Inject != nil && ev.Clear != "" {
			return fmt.Errorf("%s: both Inject and Clear set", where)
		}
		if ev.Inject == nil && ev.Clear == "" {
			return fmt.Errorf("%s: neither Inject nor Clear set", where)
		}
		if ev.Every < 0 || ev.Duration < 0 || ev.Count < 0 {
			return fmt.Errorf("%s: negative Every/Duration/Count", where)
		}
		if ev.Every == 0 && ev.Count > 0 {
			return fmt.Errorf("%s: Count %d without Every", where, ev.Count)
		}
		if ev.Every > 0 {
			if ev.Inject == nil {
				return fmt.Errorf("%s: repeating clear events are not supported", where)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("%s: repeating event needs Duration (down time per cycle)", where)
			}
			if ev.Duration >= ev.Every {
				return fmt.Errorf("%s: Duration %d >= Every %d would overlap cycles",
					where, ev.Duration, ev.Every)
			}
		}
		if ev.Inject != nil {
			if prev, dup := names[ev.Name]; dup {
				return fmt.Errorf("%s: name %q already used by event %d", where, ev.Name, prev)
			}
			names[ev.Name] = i
		}
	}
	cleared := map[string]int{}
	for i, ev := range s.Events {
		if ev.Clear == "" {
			continue
		}
		j, ok := names[ev.Clear]
		if !ok {
			return fmt.Errorf("chaos: scenario %q event %d: Clear %q matches no inject event",
				s.Name, i, ev.Clear)
		}
		if s.Events[j].At >= ev.At {
			return fmt.Errorf("chaos: scenario %q event %d: clears %q before its onset",
				s.Name, i, ev.Clear)
		}
		if s.Events[j].Every > 0 {
			return fmt.Errorf("chaos: scenario %q event %d: cannot Clear repeating event %q (use Count)",
				s.Name, i, ev.Clear)
		}
		if s.Events[j].Duration > 0 {
			return fmt.Errorf("chaos: scenario %q event %d: cannot Clear %q, which clears itself after its Duration",
				s.Name, i, ev.Clear)
		}
		if prev, dup := cleared[ev.Clear]; dup {
			return fmt.Errorf("chaos: scenario %q event %d: %q is already cleared by event %d",
				s.Name, i, ev.Clear, prev)
		}
		cleared[ev.Clear] = i
	}
	return nil
}
