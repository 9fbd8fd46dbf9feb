package alert

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// driveRecorder builds a recorder sampling every 100 ns with one series "x"
// whose value is vals[sample] (the last value repeats), arms rules on it and
// runs the engine until every value has been sampled.
func driveRecorder(t *testing.T, vals []float64, rules []Rule) *Evaluator {
	t.Helper()
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, 100, 0)
	i := 0
	rec.Register("x", func() float64 {
		v := vals[len(vals)-1]
		if i < len(vals) {
			v = vals[i]
		}
		i++
		return v
	})
	ev, err := New(rec, rules)
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	eng.Run(sim.Time(100*len(vals) + 50))
	return ev
}

func TestLifecycleHoldFiresAndResolves(t *testing.T) {
	// Samples at t=100..600: 0, 10, 10, 10, 0, 0 with a 200 ns hold.
	ev := driveRecorder(t, []float64{0, 10, 10, 10, 0, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5, ForNs: 200}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want one episode", rep.Alerts)
	}
	a := rep.Alerts[0]
	if a.PendingNs != 200 || a.FiringNs != 400 || a.ResolvedNs != 500 || a.State != StateResolved {
		t.Fatalf("episode = %+v, want pending@200 firing@400 resolved@500", a)
	}
	if a.Severity != SeverityWarning {
		t.Fatalf("severity = %q, want warning default", a.Severity)
	}
	if rep.Fired != 1 || rep.Resolved != 1 {
		t.Fatalf("fired/resolved = %d/%d, want 1/1", rep.Fired, rep.Resolved)
	}
	want := []string{StatePending, StateFiring, StateResolved}
	if len(rep.Events) != len(want) {
		t.Fatalf("events = %+v, want %v", rep.Events, want)
	}
	for i, e := range rep.Events {
		if e.To != want[i] {
			t.Fatalf("event %d: To = %q, want %q", i, e.To, want[i])
		}
	}
}

func TestLifecycleCancelBeforeHold(t *testing.T) {
	// One breaching sample, then clear: the hold never elapses.
	ev := driveRecorder(t, []float64{0, 10, 0, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5, ForNs: 300}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 || rep.Alerts[0].State != StateCancelled {
		t.Fatalf("alerts = %+v, want one cancelled episode", rep.Alerts)
	}
	if rep.Alerts[0].FiringNs != 0 || rep.Fired != 0 || rep.Cancelled != 1 {
		t.Fatalf("cancelled episode fired: %+v", rep.Alerts[0])
	}
}

func TestZeroHoldFiresOnFirstBreach(t *testing.T) {
	ev := driveRecorder(t, []float64{0, 10, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 || rep.Alerts[0].FiringNs != 200 || rep.Alerts[0].PendingNs != 200 {
		t.Fatalf("alerts = %+v, want firing at the first breaching sample", rep.Alerts)
	}
}

func TestDipFrozenBaseline(t *testing.T) {
	// Window 300 ns = 3 samples of 10 fill the ring; then a long dip to 2.
	// The baseline must stay frozen at 10 during the episode (the dip never
	// feeds the ring), so the episode resolves only at full recovery.
	vals := []float64{10, 10, 10, 2, 2, 2, 6, 10, 10}
	ev := driveRecorder(t, vals, []Rule{{
		Name: "d", Series: "x", Op: OpDip, Value: 0.5, WindowNs: 300, MinValue: 0.1,
	}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want one episode", rep.Alerts)
	}
	a := rep.Alerts[0]
	// Ring full after t=300; first dip sample t=400 (2 < 0.5*10).
	if a.PendingNs != 400 || a.Baseline != 10 {
		t.Fatalf("episode = %+v, want pending@400 baseline=10", a)
	}
	// 6 >= 0.5*10 is above the frozen floor, so the episode ends at t=700.
	if a.ResolvedNs != 700 || a.State != StateResolved {
		t.Fatalf("episode = %+v, want resolved@700 against the frozen baseline", a)
	}
	if a.Peak != 2 {
		t.Fatalf("peak = %v, want the dip minimum 2", a.Peak)
	}
}

func TestRateAbove(t *testing.T) {
	// dv/dt = 40 per 100 ns = 4e8/s between t=200 and t=300.
	ev := driveRecorder(t, []float64{0, 0, 40, 40, 40},
		[]Rule{{Name: "r", Series: "x", Op: OpRateAbove, Value: 1e8}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 || rep.Alerts[0].PendingNs != 300 {
		t.Fatalf("alerts = %+v, want one episode pending@300", rep.Alerts)
	}
	if rep.Alerts[0].ResolvedNs != 400 {
		t.Fatalf("episode = %+v, want resolved@400 when the rate flattens", rep.Alerts[0])
	}
}

func TestAbsentSeries(t *testing.T) {
	ev := driveRecorder(t, []float64{1, 1},
		[]Rule{{Name: "a", Series: "missing", Op: OpAbsent}})
	rep := ev.Report()
	if len(rep.Alerts) != 1 || rep.Alerts[0].State != StateFiring {
		t.Fatalf("alerts = %+v, want one firing absence episode", rep.Alerts)
	}
	if !strings.Contains(rep.Alerts[0].Cause, "absent") {
		t.Fatalf("cause = %q", rep.Alerts[0].Cause)
	}
}

func TestGlobBindsEveryMatchingSeries(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, 100, 0)
	rec.Register("q{port=a}", func() float64 { return 10 })
	rec.Register("q{port=b}", func() float64 { return 0 })
	rec.Register("other", func() float64 { return 10 })
	ev, err := New(rec, []Rule{{Name: "g", Series: "q{*}", Op: OpAbove, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	eng.Run(250)
	rep := ev.Report()
	if len(rep.Alerts) != 1 || rep.Alerts[0].Series != "q{port=a}" {
		t.Fatalf("alerts = %+v, want exactly the q{port=a} episode", rep.Alerts)
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pattern, key string
		want         bool
	}{
		{"net.goodput_gbps", "net.goodput_gbps", true},
		{"net.goodput_gbps", "net.goodput", false},
		{"hermes.paths_gray{*}", "hermes.paths_gray{leaf=0}", true},
		{"hermes.paths_gray{*}", "hermes.paths_gray{}", true},
		{"hermes.paths_gray{*}", "hermes.paths_gray", false},
		{"*", "anything", true},
		{"*", "", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "acb", false},
		{"a*b*c", "a-b-c", true},
		{"a*b*c", "a-c-b", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pattern, c.key); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pattern, c.key, got, c.want)
		}
	}
}

func TestEventAndEpisodeCaps(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, 100, 0)
	rec.Register("a", func() float64 { return 10 })
	rec.Register("b", func() float64 { return 10 })
	ev, err := New(rec, []Rule{{Name: "g", Series: "*", Op: OpAbove, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ev.episodes = timeseries.NewLog[Alert](1)
	ev.events = timeseries.NewLog[Event](1)
	rec.Start()
	eng.Run(350)
	rep := ev.Report()
	if len(rep.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want the cap to keep one episode", rep.Alerts)
	}
	if rep.DroppedAlerts != 1 {
		t.Fatalf("DroppedAlerts = %d, want the suppressed episode counted once", rep.DroppedAlerts)
	}
	if len(rep.Events) != 1 || rep.DroppedEvents == 0 {
		t.Fatalf("events = %+v dropped=%d, want one kept and the rest counted", rep.Events, rep.DroppedEvents)
	}
}

func TestValidateRejectsBadRules(t *testing.T) {
	bad := []Rule{
		{Series: "x", Op: OpAbove},                                      // no name
		{Name: "n", Op: OpAbove},                                        // no series
		{Name: "n", Series: "x"},                                        // no op
		{Name: "n", Series: "x", Op: "bogus"},                           // unknown op
		{Name: "n", Series: "x", Op: OpDip, Value: 0.5},                 // dip without window
		{Name: "n", Series: "x", Op: OpDip, WindowNs: 100},              // dip without depth
		{Name: "n", Series: "x{*}", Op: OpAbsent},                       // absent glob
		{Name: "n", Series: "x", Op: OpAbove, ForNs: -1},                // negative hold
		{Name: "n", Series: "x", Op: OpAbove, Severity: Severity("ur")}, // unknown severity
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %d (%+v): Validate passed, want error", i, r)
		}
	}
	good := Rule{Name: "n", Series: "x", Op: OpAbove, Value: 1, ForNs: 100, Severity: SeverityCritical}
	if err := good.Validate(); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
}

func TestNewRejectsInvalidRule(t *testing.T) {
	rec := timeseries.NewRecorder(sim.NewEngine(), 100, 0)
	if _, err := New(rec, []Rule{{Name: "n", Series: "x", Op: "bogus"}}); err == nil {
		t.Fatal("New accepted an invalid rule")
	}
}

func TestSnapshotSinceCursor(t *testing.T) {
	ev := driveRecorder(t, []float64{0, 10, 0, 10, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5}})
	s := ev.SnapshotSince(0)
	if len(s.Events) != 6 || s.NextEvent != 6 {
		t.Fatalf("snapshot = %+v, want 6 events (2 episodes x pending+firing+resolved)", s)
	}
	s2 := ev.SnapshotSince(s.NextEvent)
	if len(s2.Events) != 0 || s2.NextEvent != 6 {
		t.Fatalf("cursor resume = %+v, want no new events", s2)
	}
	// Invalid cursors (negative, past the end) clamp to a full read.
	for _, since := range []int{-1, 99} {
		if s := ev.SnapshotSince(since); len(s.Events) != 6 {
			t.Fatalf("SnapshotSince(%d) = %d events, want clamped full read", since, len(s.Events))
		}
	}
}

func TestRunLogRoundTrip(t *testing.T) {
	ev := driveRecorder(t, []float64{0, 10, 10, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5, ForNs: 100, Severity: SeverityCritical}})
	rep := ev.Report()
	var buf bytes.Buffer
	if err := WriteRunLog(&buf, "unit/seed 1", rep); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Label != "unit/seed 1" {
		t.Fatalf("runs = %+v", runs)
	}
	got := runs[0].Report
	if got.Fired != rep.Fired || got.Resolved != rep.Resolved || got.IntervalNs != rep.IntervalNs {
		t.Fatalf("counters = %+v, want %+v", got, rep)
	}
	if !reflect.DeepEqual(got.Alerts, rep.Alerts) || !reflect.DeepEqual(got.Events, rep.Events) {
		t.Fatalf("round trip mutated alerts/events:\ngot  %+v\nwant %+v", got, rep)
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"kind":"run","schema":"wrong/v9"}`,
		`{"kind":"alert","alert":{"rule":"r"}}`, // alert before run header
		`{"kind":"wat"}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadLog(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("ReadLog accepted %q", c)
		}
	}
}

func TestBuiltinPackValidates(t *testing.T) {
	for _, p := range []BuiltinParams{{}, {IntervalNs: 50_000, QueueCapBytes: 300_000}} {
		rules := Builtin(p)
		for _, r := range rules {
			if err := r.Validate(); err != nil {
				t.Errorf("builtin rule %q invalid: %v", r.Name, err)
			}
		}
		if p.QueueCapBytes > 0 {
			found := false
			for _, r := range rules {
				if r.Name == RuleQueueSaturation {
					found = true
				}
			}
			if !found {
				t.Error("queue-saturation missing despite QueueCapBytes")
			}
		}
	}
}

func TestRenderText(t *testing.T) {
	ev := driveRecorder(t, []float64{0, 10, 10, 0},
		[]Rule{{Name: "t", Series: "x", Op: OpAbove, Value: 5, ForNs: 100}})
	var buf bytes.Buffer
	if err := RenderText(&buf, ev.Report(), 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fired=1", "[warning/resolved] t on x", "alert timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := RenderText(&buf, nil, 0); err != nil || !strings.Contains(buf.String(), "none") {
		t.Fatalf("nil render = %q err=%v", buf.String(), err)
	}
}

// TestSampleAllocatesNothing: with 50 series breaching and their episodes
// open, and healthy dip and rate rules over the same series, one
// steady-state Sample allocates nothing. A breach's cause is formatted
// only when its episode opens, and the probe names are read only when
// their count changes.
func TestSampleAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, 100, 0)
	for i := range 50 {
		rec.Register("q{port="+strconv.Itoa(i)+"}", func() float64 { return 10 })
	}
	ev, err := New(rec, []Rule{
		{Name: "hot", Series: "q*", Op: OpAbove, Value: 5, ForNs: 200},
		{Name: "sag", Series: "q*", Op: OpDip, Value: 0.5, WindowNs: 300},
		{Name: "climb", Series: "q*", Op: OpRateAbove, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	eng.Run(1000)
	if rep := ev.Report(); len(rep.Alerts) != 50 || rep.Firing != 50 {
		t.Fatalf("%d episodes, %d firing; want 50 firing", len(rep.Alerts), rep.Firing)
	}
	at := int64(eng.Now())
	if n := testing.AllocsPerRun(100, func() {
		at += 100
		ev.Sample(at)
	}); n != 0 {
		t.Fatalf("Sample allocated %v times, want 0", n)
	}
}
