package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at equal time fired out of scheduling order: %v", got[:i+1])
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-100, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards: %d", e.Now())
	}
}

func TestAtInPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		e.At(50, func() {
			if e.Now() != 100 {
				t.Fatalf("past event fired at %d, want 100", e.Now())
			}
		})
	})
	e.RunAll()
}

// cancelDepths queue the events under test in the heap (a shallow queue)
// and in a delay lane (fillers keep more than smallQueue events pending),
// where Cancel leaves a tombstone.
var cancelDepths = []struct {
	name   string
	filler int
}{{"heap", 0}, {"lane", smallQueue}}

// fill queues n events due after everything the cancel tests schedule.
func fill(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Schedule(1000, func() {})
	}
}

func TestCancel(t *testing.T) {
	for _, c := range cancelDepths {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			fill(e, c.filler)
			var fired []string
			ev := e.Schedule(10, func() { fired = append(fired, "cancelled") })
			e.Schedule(10, func() { fired = append(fired, "kept") })
			if inLane := ev.lane != inHeap; inLane != (c.filler > 0) {
				t.Fatalf("event queued in a lane: %v, want %v", inLane, c.filler > 0)
			}
			ev.Cancel()
			e.Run(10)
			if len(fired) != 1 || fired[0] != "kept" {
				t.Fatalf("fired = %v, want [kept]", fired)
			}
		})
	}
}

// TestCancelThenRescheduleSameTimestamp is the free-list regression test: a
// cancelled event is recycled safely (a tombstone frees it at once, the heap
// once it is popped), and an event rescheduled at the exact same timestamp —
// possibly reusing the recycled struct — fires exactly once with no stale
// cancel state.
func TestCancelThenRescheduleSameTimestamp(t *testing.T) {
	for _, c := range cancelDepths {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			fill(e, c.filler)
			var fired []string
			old := e.Schedule(10, func() { fired = append(fired, "old") })
			old.Cancel()
			repl := e.Schedule(10, func() { fired = append(fired, "new") })
			if c.filler > 0 && repl != old {
				t.Fatal("the tombstoned event was not reused by the next schedule")
			}
			e.Run(10)
			if len(fired) != 1 || fired[0] != "new" {
				t.Fatalf("fired = %v, want [new]", fired)
			}

			// Second round: the cancelled struct is on the free list by now.
			// Scheduling at the same timestamp again must reuse it cleanly.
			if e.FreeEvents() == 0 {
				t.Fatal("cancelled+fired events were not recycled to the free list")
			}
			fired = nil
			e.At(e.Now(), func() { fired = append(fired, "again") })
			e.Run(e.Now())
			if len(fired) != 1 || fired[0] != "again" {
				t.Fatalf("fired = %v, want [again]", fired)
			}
		})
	}
}

// TestScheduleSaturates is the regression test for now+delay overflowing: a
// delay near math.MaxInt64 wrapped negative, was clamped to now and fired at
// once. Every schedule flavor must saturate at the end of the clock instead.
func TestScheduleSaturates(t *testing.T) {
	e := NewEngine()
	e.Run(10)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	call := func(_, _ any) { record() }
	e.Schedule(math.MaxInt64-5, record)
	e.ScheduleKind(math.MaxInt64, KindChaos, record)
	e.ScheduleCall(math.MaxInt64-5, call, nil, nil)
	e.ScheduleCallKind(math.MaxInt64, KindRTO, call, nil, nil)
	e.Run(1 << 62)
	if len(fired) != 0 {
		t.Fatalf("events due at the end of the clock fired at %v", fired)
	}
	e.RunAll()
	if len(fired) != 4 {
		t.Fatalf("fired %d of 4 events", len(fired))
	}
	for _, at := range fired {
		if at != math.MaxInt64 {
			t.Fatalf("fired at %v, want every event at math.MaxInt64", fired)
		}
	}
}

// TestEventSize pins the event struct at 72 bytes, one per live event
// however deep the queue.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 72 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want at most 72", got)
	}
}

// TestEventRecycling pins the free-list behaviour the packet hot path relies
// on: after a warm-up, schedule/fire cycles reuse event structs instead of
// allocating.
func TestEventRecycling(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunAll()
	if got := e.FreeEvents(); got != 100 {
		t.Fatalf("free list holds %d events after firing 100, want 100", got)
	}
	// Reuse: scheduling 100 more must drain the free list, not grow it.
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {})
	}
	if got := e.FreeEvents(); got != 0 {
		t.Fatalf("free list holds %d events after rescheduling 100, want 0", got)
	}
}

func TestScheduleCall(t *testing.T) {
	e := NewEngine()
	type box struct{ n int }
	b1, b2 := &box{}, &box{}
	e.ScheduleCall(5, func(a1, a2 any) {
		a1.(*box).n = 1
		a2.(*box).n = 2
	}, b1, b2)
	e.RunAll()
	if b1.n != 1 || b2.n != 2 {
		t.Fatalf("ScheduleCall args not delivered: %d %d", b1.n, b2.n)
	}
}

// TestScheduleCallOrderingWithSchedule verifies fn- and fn2-style events
// share one sequence space: same-instant events fire in scheduling order
// regardless of flavor.
func TestScheduleCallOrderingWithSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(5, func() { got = append(got, 0) })
	e.ScheduleCall(5, func(a1, _ any) { s := a1.(*[]int); *s = append(*s, 1) }, &got, nil)
	e.Schedule(5, func() { got = append(got, 2) })
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed-flavor same-instant order = %v", got)
		}
	}
}

func TestChecksCleanRun(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	for i := 0; i < 50; i++ {
		d := Time(i % 7)
		e.Schedule(d, func() {})
	}
	ev := e.Schedule(3, func() { t.Fatal("cancelled event fired") })
	ev.Cancel()
	e.RunAll()
	if v := e.Violations(); len(v) != 0 {
		t.Fatalf("clean run recorded violations: %v", v)
	}
}

// TestChecksDetectBackwardsTime corrupts the clock directly (white-box) and
// confirms the checker notices the next event firing in the past.
func TestChecksDetectBackwardsTime(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	e.Schedule(5, func() {})
	e.now = 50 // corrupt: pending event is now in the past
	e.RunAll()
	if v := e.Violations(); len(v) == 0 {
		t.Fatal("backwards-time violation not detected")
	}
}

// TestChecksDetectFireAfterCancel forges a cancelled event straight into the
// heap execution path (white-box) and confirms the state check trips.
func TestChecksDetectFireAfterCancel(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	ev := e.Schedule(5, func() {})
	ev.state = stateFired // forge: simulates a use-after-free double fire
	e.RunAll()
	if v := e.Violations(); len(v) == 0 {
		t.Fatal("fire-in-wrong-state violation not detected")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { ev.Cancel() })
	e.RunAll()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Run(10)
	if len(fired) != 2 {
		t.Fatalf("Run(10) fired %v, want events at 5 and 10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d after Run(10)", e.Now())
	}
	e.Run(20)
	if len(fired) != 3 {
		t.Fatalf("second Run did not pick up the remaining event: %v", fired)
	}
}

func TestRunAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.Run(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d, want horizon 1000", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 3 {
		t.Fatalf("Stop did not halt the loop: %d events fired", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
}

func TestRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(0, rec)
	n := e.RunAll()
	if depth != 100 || n != 100 {
		t.Fatalf("depth=%d fired=%d, want 100/100", depth, n)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %d, want 99", e.Now())
	}
}

// Property: for any set of random delays, events fire in non-decreasing
// timestamp order and the engine fires exactly len(delays) events.
func TestPropertyTimestampMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Run calls at arbitrary horizons fires every event
// exactly once, in order.
func TestPropertyChunkedRunEquivalent(t *testing.T) {
	f := func(delays []uint16, chunks []uint16) bool {
		if len(chunks) == 0 {
			chunks = []uint16{100}
		}
		e := NewEngine()
		count := 0
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { count++ })
		}
		for _, c := range chunks {
			e.Run(e.Now() + Time(c))
		}
		e.Run(max + 1)
		return count == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTwoDistinct(t *testing.T) {
	g := NewRNG(7)
	for n := 2; n < 10; n++ {
		for i := 0; i < 200; i++ {
			a, b := g.TwoDistinct(n)
			if a == b {
				t.Fatalf("TwoDistinct(%d) returned equal values %d", n, a)
			}
			if a < 0 || a >= n || b < 0 || b >= n {
				t.Fatalf("TwoDistinct(%d) out of range: %d %d", n, a, b)
			}
		}
	}
}

func TestTwoDistinctUniform(t *testing.T) {
	g := NewRNG(1)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		a, b := g.TwoDistinct(4)
		counts[a]++
		counts[b]++
	}
	// Each index should appear in about half of all draws.
	want := trials / 2
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("index %d drawn %d times, want ~%d", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(3)
	const mean = 1e6
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Exp(mean))
	}
	got := sum / n
	if got < 0.95*mean || got > 1.05*mean {
		t.Fatalf("Exp mean = %.0f, want ~%.0f", got, mean)
	}
}

func TestExpPositive(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := g.Exp(0.001); v < 1 {
			t.Fatalf("Exp returned %d < 1", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(5)
	p := g.Perm(32)
	seen := make([]bool, 32)
	for _, v := range p {
		if v < 0 || v >= 32 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
