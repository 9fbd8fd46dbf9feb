package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestObserverOrder: an observer instant runs after the events filed before
// the observer was armed or last ran, and before the events due at the same
// instant that were filed after it; observers due together run in arming
// order. The event at 20 was filed at 0, before the instants at 20 took
// their watermark at 10, so it runs first.
func TestObserverOrder(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	e.Schedule(10, note("before"))
	e.Every(10, note("first"))
	e.Every(10, note("second"))
	e.Schedule(10, note("after"))
	e.Schedule(20, note("late"))
	e.Run(20)
	want := []string{"before", "first", "second", "after", "late", "first", "second"}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if v := e.Violations(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestObserverRunsOverAnEmptyQueue: Run(until) runs the instants due by
// until with nothing queued, and RunAll returns once the queue drains,
// leaving later instants unrun.
func TestObserverRunsOverAnEmptyQueue(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Every(3, func() { at = append(at, e.Now()) })
	e.Run(10)
	if !slices.Equal(at, []Time{3, 6, 9}) || e.Now() != 10 {
		t.Fatalf("Run(10) over an empty queue: instants %v, now %d; want [3 6 9], now 10", at, e.Now())
	}
	e.Schedule(7, func() {})
	e.RunAll()
	if !slices.Equal(at, []Time{3, 6, 9, 12, 15}) || e.Now() != 17 {
		t.Fatalf("RunAll: instants %v, now %d; want [3 6 9 12 15], now 17", at, e.Now())
	}
}

// TestObserverLeavesTheFingerprint: arming an observer changes none of Now,
// Seq, Fired, Pending and PendingCensus after the same events, and Observed
// counts its instants.
func TestObserverLeavesTheFingerprint(t *testing.T) {
	run := func(observe bool) *Engine {
		e := NewEngine()
		if observe {
			e.Every(5, func() {})
		}
		var tick func()
		n := 0
		tick = func() {
			if n++; n < 20 {
				e.ScheduleKind(4, KindTimer, tick)
			}
		}
		e.ScheduleKind(4, KindTimer, tick)
		e.Schedule(100, func() {})
		e.Run(50)
		return e
	}
	a, b := run(false), run(true)
	ac, acx := a.PendingCensus()
	bc, bcx := b.PendingCensus()
	if a.Now() != b.Now() || a.Seq() != b.Seq() || a.Fired() != b.Fired() ||
		a.Pending() != b.Pending() || ac != bc || acx != bcx {
		t.Fatalf("observed engine (now %d, seq %d, fired %d, pending %d) differs from unobserved (%d, %d, %d, %d)",
			b.Now(), b.Seq(), b.Fired(), b.Pending(), a.Now(), a.Seq(), a.Fired(), a.Pending())
	}
	if a.Observed() != 0 || b.Observed() != 10 {
		t.Fatalf("Observed() = %d and %d, want 0 and 10", a.Observed(), b.Observed())
	}
}

// TestObserverStop: a stopped observer never runs again, whether it is
// stopped between runs or from its own instant, and stopping twice or a
// nil observer does nothing.
func TestObserverStop(t *testing.T) {
	e := NewEngine()
	var a, b int
	oa := e.Every(2, func() { a++ })
	var ob *Observer
	ob = e.Every(3, func() {
		if b++; b == 2 {
			ob.Stop()
		}
	})
	e.Run(6)
	oa.Stop()
	oa.Stop()
	(*Observer)(nil).Stop()
	e.Run(30)
	if a != 3 || b != 2 || e.Observed() != 5 {
		t.Fatalf("instants a=%d b=%d observed=%d, want 3, 2, 5", a, b, e.Observed())
	}
}

// TestObserverProfiledAsSample: the profiler counts and wall-times each
// observer instant as a KindSample fire, beside the events it counts.
func TestObserverProfiledAsSample(t *testing.T) {
	e := NewEngine()
	p := e.EnableProfile(1)
	e.Every(10, func() {})
	for i := 1; i <= 5; i++ {
		e.ScheduleKind(Time(7*i), KindPortTx, func() {})
	}
	e.Run(40)
	if e.Observed() != 4 || e.Fired() != 5 {
		t.Fatalf("Observed() = %d, Fired() = %d; want 4 and 5", e.Observed(), e.Fired())
	}
	if p.Count(KindSample) != 4 || p.SampledFires(KindSample) != 4 {
		t.Fatalf("sample count %d, timed %d; want 4 and 4", p.Count(KindSample), p.SampledFires(KindSample))
	}
	if p.Total() != e.Fired()+e.Observed() {
		t.Fatalf("Total() = %d, want Fired()+Observed() = %d", p.Total(), e.Fired()+e.Observed())
	}
}

// TestObserverThatSchedulesIsAViolation: with checks on, an observer
// instant that moves Seq is recorded, not panicked.
func TestObserverThatSchedulesIsAViolation(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	e.Every(10, func() { e.Schedule(1, func() {}) })
	e.Run(10)
	v := e.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "observer at t=10 moved Seq") {
		t.Fatalf("violations %q, want one naming the observer at t=10", v)
	}
}
