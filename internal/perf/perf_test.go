package perf

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hermes-repro/hermes/internal/sim"
)

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")

	// A missing file is an empty ledger, not an error.
	l, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Entries) != 0 {
		t.Fatalf("missing file produced %d entries", len(l.Entries))
	}

	fp := HostFingerprint("abc123", true)
	if fp.GOOS == "" || fp.NumCPU < 1 || fp.Revision != "abc123" || !fp.Dirty {
		t.Fatalf("fingerprint: %+v", fp)
	}
	l.Append(LedgerEntry{Name: "b.One", Date: "2026-01-01T00:00:00Z", NsOp: 100, Fingerprint: fp})
	l.Append(LedgerEntry{Name: "b.Two", Date: "2026-01-01T00:00:00Z", NsOp: 50, Fingerprint: fp})
	l.Append(LedgerEntry{Name: "b.One", Date: "2026-02-01T00:00:00Z", NsOp: 110, Fingerprint: fp})
	if err := l.Save(path); err != nil {
		t.Fatal(err)
	}

	l2, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Entries) != 3 {
		t.Fatalf("reloaded %d entries, want 3", len(l2.Entries))
	}
	if got := l2.Latest("b.One"); got == nil || got.NsOp != 110 {
		t.Fatalf("Latest(b.One) = %+v", got)
	}
	if got := l2.Latest("b.Missing"); got != nil {
		t.Fatalf("Latest of absent benchmark = %+v", got)
	}
	if names := l2.Names(); len(names) != 2 || names[0] != "b.One" || names[1] != "b.Two" {
		t.Fatalf("Names = %v", names)
	}
}

func TestCompareEntries(t *testing.T) {
	fp := HostFingerprint("", false)
	mk := func(ns float64, samples []float64) LedgerEntry {
		return LedgerEntry{Name: "b", NsOp: ns, SamplesNsOp: samples, Fingerprint: fp}
	}

	// Clear, sample-backed slowdown: significant regression.
	c := CompareEntries(
		mk(100, []float64{99, 100, 101, 100, 99}),
		mk(130, []float64{129, 130, 131, 130, 129}))
	if !c.Regression || !c.Significant || c.DeltaPct < 29 || c.DeltaPct > 31 {
		t.Fatalf("slowdown verdict: %+v", c)
	}

	// Same samples, same mean: no regression, not significant.
	c = CompareEntries(
		mk(100, []float64{99, 100, 101, 100, 99}),
		mk(100, []float64{99, 100, 101, 100, 99}))
	if c.Regression || c.Significant {
		t.Fatalf("no-change verdict: %+v", c)
	}

	// Speedup is never a regression.
	c = CompareEntries(
		mk(130, []float64{129, 130, 131}),
		mk(100, []float64{99, 100, 101}))
	if c.Regression || c.DeltaPct >= 0 {
		t.Fatalf("speedup verdict: %+v", c)
	}

	// Over threshold without samples: low-confidence regression (the
	// comparator errs toward warning).
	c = CompareEntries(mk(100, nil), mk(120, nil))
	if !c.Regression || c.Significant || c.PValue != 1 {
		t.Fatalf("untestable slowdown verdict: %+v", c)
	}

	// Under threshold: never a regression, samples or not.
	c = CompareEntries(mk(100, nil), mk(105, nil))
	if c.Regression {
		t.Fatalf("5%% delta flagged: %+v", c)
	}

	// Cross-machine comparisons are flagged.
	other := mk(100, nil)
	other.Fingerprint.NumCPU = fp.NumCPU + 1
	c = CompareEntries(other, mk(100, nil))
	if !c.CrossMachine {
		t.Fatalf("cross-machine not flagged: %+v", c)
	}
	if !strings.Contains(c.String(), "different machine") {
		t.Fatalf("String() hides the cross-machine flag: %s", c.String())
	}
}

func TestMannWhitneyP(t *testing.T) {
	// Fully separated samples: strong evidence of a difference.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{11, 12, 13, 14, 15, 16, 17, 18}
	if p := MannWhitneyP(x, y); p >= 0.05 {
		t.Fatalf("disjoint samples p = %v, want < 0.05", p)
	}
	// Symmetry.
	if p1, p2 := MannWhitneyP(x, y), MannWhitneyP(y, x); p1 != p2 {
		t.Fatalf("asymmetric: %v vs %v", p1, p2)
	}
	// Identical samples are all ties: degenerate, p = 1.
	z := []float64{5, 5, 5}
	if p := MannWhitneyP(z, z); p != 1 {
		t.Fatalf("all-tied p = %v, want 1", p)
	}
	// Interleaved samples: no evidence.
	a := []float64{1, 3, 5, 7, 9, 11}
	b := []float64{2, 4, 6, 8, 10, 12}
	if p := MannWhitneyP(a, b); p < 0.5 {
		t.Fatalf("interleaved samples p = %v, want large", p)
	}
	// Degenerate inputs.
	if p := MannWhitneyP(nil, z); p != 1 {
		t.Fatalf("empty sample p = %v, want 1", p)
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	s := StartRuntimeSampler(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	stats := s.Stop()
	if stats.Samples < 2 {
		t.Fatalf("Samples = %d, want >= 2 (opening + final)", stats.Samples)
	}
	if stats.WallNs <= 0 || stats.PeakHeapBytes == 0 || stats.GOMAXPROCS < 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.PeakGoroutines < 1 {
		t.Fatalf("PeakGoroutines = %d", stats.PeakGoroutines)
	}
	// Stop is idempotent and stable.
	again := s.Stop()
	if again.Samples != stats.Samples || again.WallNs != stats.WallNs {
		t.Fatalf("second Stop changed stats: %+v vs %+v", again, stats)
	}
}

func TestBuildRunReport(t *testing.T) {
	e := sim.NewEngine()
	p := e.EnableProfile(2)
	for i := 0; i < 10; i++ {
		e.ScheduleKind(int64(i), sim.KindPortTx, func() {})
	}
	e.ScheduleKind(20, sim.KindRTO, func() {})
	e.RunAll()

	r := BuildRunReport(p, int64(e.Now()), int64(5e6), &RuntimeStats{
		PeakHeapBytes: 1 << 20, GCCycles: 1, GOMAXPROCS: 4, Samples: 3, WallNs: 5e6,
	})
	if r.EventsTotal != 11 {
		t.Fatalf("EventsTotal = %d", r.EventsTotal)
	}
	if len(r.ByKind) != 2 || r.ByKind[0].Kind != "port_tx" || r.ByKind[0].Count != 10 {
		t.Fatalf("ByKind = %+v (want port_tx first by count)", r.ByKind)
	}
	if r.SimNs != int64(e.Now()) || r.WallNs != 5e6 {
		t.Fatalf("clocks: %+v", r)
	}
	if r.SimPerWall <= 0 || r.EventsPerSec <= 0 {
		t.Fatalf("rates: %+v", r)
	}
	var share float64
	for _, ks := range r.ByKind {
		share += ks.EstSharePct
	}
	if share < 99 || share > 101 {
		t.Fatalf("EstSharePct sums to %v, want ~100", share)
	}

	var sb strings.Builder
	r.RenderText(&sb)
	out := sb.String()
	for _, want := range []string{"port_tx", "rto", "events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RenderText missing %q:\n%s", want, out)
		}
	}
}

func TestObservatoryAggregation(t *testing.T) {
	var o Observatory
	o.AddRun(&RunReport{EventsTotal: 10, QueuePeak: 5, SimNs: 100, WallNs: 50,
		ByKind: []KindStat{{Kind: "port_tx", Count: 10}}})
	o.AddRun(&RunReport{EventsTotal: 20, QueuePeak: 3, SimNs: 100, WallNs: 50,
		ByKind: []KindStat{{Kind: "port_tx", Count: 15}, {Kind: "rto", Count: 5}}})
	o.AddRun(nil) // ignored

	s := o.Summary()
	if s.RunsProfiled != 2 || s.EventsTotal != 30 || s.QueuePeak != 5 {
		t.Fatalf("summary: %+v", s)
	}
	if s.EventsByKind["port_tx"] != 25 || s.EventsByKind["rto"] != 5 {
		t.Fatalf("by kind: %v", s.EventsByKind)
	}
	if s.SimPerWall != 2 {
		t.Fatalf("SimPerWall = %v", s.SimPerWall)
	}

	ms := s.Metrics()
	byName := map[string]float64{}
	for _, m := range ms {
		key := m.Name
		if k, ok := m.Labels["kind"]; ok {
			key += "{" + k + "}"
		}
		byName[key] = m.Value
	}
	if byName["perf.events_total"] != 30 ||
		byName["perf.events_by_kind_total{port_tx}"] != 25 ||
		byName["perf.runs_profiled_total"] != 2 {
		t.Fatalf("metrics: %v", byName)
	}
}
