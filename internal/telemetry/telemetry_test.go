package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	h := reg.Histogram("z", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 {
		t.Fatal("nil instruments must be inert")
	}
	if reg.Histograms() != nil {
		t.Fatal("nil registry must export nothing")
	}

	var log *AuditLog
	log.Add(AuditEntry{Kind: AuditPlace})
	if log.Len() != 0 || log.Dropped() != 0 {
		t.Fatal("nil audit log must be inert")
	}
	var rd *RunData
	rep := &Report{}
	rd.Fill(rep)
	if rep.Counters != nil || rep.Series != nil {
		t.Fatal("nil run data must fill nothing")
	}
	// The zero plane has no sink armed: declarations are no-ops.
	var pl Plane
	pl.Declare(Metric{Name: "x", Sinks: SinkReport | SinkFlight, Rate: "x_rate"}, func() float64 { return 1 })
	if pl.Histogram("h", []float64{1}) != nil {
		t.Fatal("unarmed plane handed out a histogram")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("transport.cwnd_bytes", []float64{1, 2})
	b := reg.Histogram("transport.cwnd_bytes", []float64{5})
	if a != b {
		t.Fatal("same key must return the same histogram")
	}
	a.Observe(1)
	b.Observe(1)
	if got := reg.Histograms()["transport.cwnd_bytes"].Count; got != 2 {
		t.Fatalf("shared histogram count = %v, want 2", got)
	}
	// Label order must not matter.
	x := reg.Histogram("net.port.delay", nil, "port", "p0", "dir", "up")
	y := reg.Histogram("net.port.delay", nil, "dir", "up", "port", "p0")
	if x != y {
		t.Fatal("label order must not change identity")
	}
	if k := Key("m", "b", "2", "a", "1"); k != "m{a=1,b=2}" {
		t.Fatalf("Key = %q", k)
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cwnd", []float64{10, 100})
	for _, v := range []float64{5, 50, 500, 7} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 4 || s.Min != 5 || s.Max != 500 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Buckets[0].Count != 2 || s.Buckets[1].Count != 1 || s.Inf != 1 {
		t.Fatalf("buckets = %+v inf=%d", s.Buckets, s.Inf)
	}
	if got := h.Mean(); got != (5+50+500+7)/4.0 {
		t.Fatalf("mean = %v", got)
	}
}

// TestSweeperSeries checks the report sweep: one row per interval from one
// interval after Start, a final Snap holding the end state, and a metric
// declared mid-run zero-backfilled over the rows before it existed.
func TestSweeperSeries(t *testing.T) {
	eng := sim.NewEngine()
	rd := NewRunData(eng, sim.Millisecond)
	pl := Plane{Run: rd}
	var events float64
	pl.Declare(Metric{Name: "events", Sinks: SinkReport}, func() float64 { return events })
	rd.Sweep.Start()
	eng.Schedule(500*sim.Microsecond, func() { events += 3 })
	eng.Schedule(1500*sim.Microsecond, func() { events += 4 })
	eng.Run(3500 * sim.Microsecond)
	rd.Sweep.Stop()
	if got := rd.Sweep.Times(); len(got) != 3 || got[0] != int64(sim.Millisecond) {
		t.Fatalf("sweep times = %v, want 3 rows from 1 ms", got)
	}
	got := rd.Sweep.Series("events")
	want := []float64{3, 7, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
	pl.Declare(Metric{Name: "late", Sinks: SinkReport}, func() float64 { return 1 })
	rd.Sweep.Snap()
	ls := rd.Sweep.Series("late")
	if len(ls) != 4 || ls[0] != 0 || ls[3] != 1 {
		t.Fatalf("late series = %v", ls)
	}
	rep := &Report{}
	rd.Fill(rep)
	if rep.Counters["events"] != 7 || rep.Counters["late"] != 1 || len(rep.SeriesTimesNs) != 4 {
		t.Fatalf("report counters %v over %d rows", rep.Counters, len(rep.SeriesTimesNs))
	}
}

// TestPlaneSinks checks that each declaration reaches exactly the armed
// sinks that export it, and that a rate sink samples the per-interval
// change of the declared counter from the moment the flight ring starts.
func TestPlaneSinks(t *testing.T) {
	eng := sim.NewEngine()
	var bytes float64 = 1000 // a counter that did not start at zero
	reads := 0
	counter := func() float64 { reads++; return bytes }
	decls := func(pl Plane) {
		pl.Declare(Metric{Name: "tx_bytes", Sinks: SinkReport, Rate: "tx_gbps", Per: timeseries.Gbps}, counter, "port", "p0")
		pl.Declare(Metric{Name: "both", Sinks: SinkReport | SinkFlight}, func() float64 { return 2 })
	}

	flightOnly := timeseries.NewRecorder(eng, 100*sim.Microsecond, 0)
	decls(Plane{Flight: flightOnly})
	if got := flightOnly.ProbeNames(); len(got) != 2 || got[0] != "tx_gbps{port=p0}" || got[1] != "both" {
		t.Fatalf("flight-only probes = %v", got)
	}

	rd := NewRunData(eng, sim.Millisecond)
	decls(Plane{Run: rd})
	rd.Sweep.Snap()
	if got := rd.Sweep.Latest(); len(got) != 2 || got["tx_bytes{port=p0}"] != 1000 || got["both"] != 2 {
		t.Fatalf("report-only values = %v", got)
	}

	reads = 0
	flightOnly.Start() // baseline the rate at 1000 bytes
	eng.Schedule(50*sim.Microsecond, func() { bytes += 1250 })
	eng.Run(100 * sim.Microsecond)
	// 1250 bytes in 100 us = 0.1 Gbit/s; nothing before Start counts.
	if got := flightOnly.Series("tx_gbps{port=p0}"); len(got) != 1 || got[0] != 0.1 {
		t.Fatalf("rate series = %v, want [0.1]", got)
	}
	if reads != 2 {
		t.Fatalf("counter read %d times, want 2 (baseline at Start, one sample)", reads)
	}
}

// TestFillReportsTheLastSample pins that a report's counters are the
// sweep's last row: a counter that moves after the final Snap, as nothing
// in a finished run can, does not reach the report.
func TestFillReportsTheLastSample(t *testing.T) {
	eng := sim.NewEngine()
	rd := NewRunData(eng, sim.Millisecond)
	var drops float64
	Plane{Run: rd}.Declare(Metric{Name: "drops", Sinks: SinkReport}, func() float64 { return drops })
	rd.Sweep.Start()
	eng.Schedule(1500*sim.Microsecond, func() { drops = 2 })
	eng.Run(2500 * sim.Microsecond)
	rd.Sweep.Stop()
	rd.Sweep.Snap()
	drops = 9
	rep := &Report{}
	rd.Fill(rep)
	if got := rep.Counters["drops"]; got != 2 {
		t.Fatalf("report counter = %v, want the last sample 2", got)
	}
	if s := rep.Series[0].Values; len(s) != 3 || s[2] != rep.Counters["drops"] {
		t.Fatalf("series %v does not end at the report counter", s)
	}
}

func TestAuditLogCapAndSummary(t *testing.T) {
	log := timeseries.NewLog[AuditEntry](2)
	log.Add(AuditEntry{At: 1, Kind: AuditPlace, Reason: ReasonFresh})
	log.Add(AuditEntry{At: 2, Kind: AuditReroute, Reason: ReasonCongestion})
	log.Add(AuditEntry{At: 3, Kind: AuditVerdict, Reason: ReasonBlackhole})
	if log.Len() != 2 || log.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", log.Len(), log.Dropped())
	}
	if got := log.All(); got[0].Kind != AuditPlace || got[1].Kind != AuditReroute {
		t.Fatalf("entries = %+v", got)
	}
	s := SummarizeAudit(log)
	if s.Entries != 2 || s.Dropped != 1 || s.ByKind["place"] != 1 || s.ByReason[ReasonCongestion] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 entries + truncation marker
		t.Fatalf("jsonl lines = %d: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], `"truncated"`) || !strings.Contains(lines[2], `"dropped":1`) {
		t.Fatalf("missing truncation marker: %q", lines[2])
	}
}

// TestAuditLogOverflowTruncation exercises heavy overflow on a log capped
// small: the cap must hold exactly, every excess entry must be counted, the
// report's audit summary must carry the drop total, and the JSONL export
// must end with a marker carrying it too — truncation is never silent.
func TestAuditLogOverflowTruncation(t *testing.T) {
	log := timeseries.NewLog[AuditEntry](3)
	for i := 0; i < 100; i++ {
		log.Add(AuditEntry{At: int64(i), Kind: AuditPlace, Reason: ReasonFresh, Flow: uint64(i)})
	}
	if log.Len() != 3 || log.Dropped() != 97 {
		t.Fatalf("len=%d dropped=%d, want 3/97", log.Len(), log.Dropped())
	}
	// The kept entries are the first three, not an arbitrary window.
	for i, e := range log.All() {
		if e.Flow != uint64(i) {
			t.Fatalf("entry %d = flow %d, want the earliest entries kept", i, e.Flow)
		}
	}
	rd := NewRunData(sim.NewEngine(), 0)
	rd.Audit = log
	var rep Report
	rd.Fill(&rep)
	if s := rep.Audit; s.Dropped != 97 || s.Entries != 3 {
		t.Fatalf("report audit summary = %+v", s)
	}

	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 3 entries + marker", len(lines))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"kind":"truncated"`) || !strings.Contains(last, `"dropped":97`) {
		t.Fatalf("marker = %q", last)
	}

	// A log below its cap emits no marker.
	d := NewAuditLog()
	buf.Reset()
	d.Add(AuditEntry{Kind: AuditVerdict, Reason: ReasonBlackhole})
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "truncated") {
		t.Fatal("marker emitted without overflow")
	}
	// A run's log holds MaxAuditEntries.
	for d.Len() < MaxAuditEntries {
		d.Add(AuditEntry{})
	}
	if d.Add(AuditEntry{}) != -1 || d.Dropped() != 1 {
		t.Fatalf("default cap: kept %d, dropped %d", d.Len(), d.Dropped())
	}
}

func TestReportDeterministicBytes(t *testing.T) {
	build := func() *Report {
		eng := sim.NewEngine()
		rd := NewRunData(eng, sim.Millisecond)
		pl := Plane{Run: rd}
		var b float64
		pl.Declare(Metric{Name: "b.two", Sinks: SinkReport}, func() float64 { return b })
		pl.Declare(Metric{Name: "a.one", Sinks: SinkReport}, func() float64 { return 1 })
		pl.Declare(Metric{Name: "c.fn", Sinks: SinkReport}, func() float64 { return 9 })
		b = 2
		pl.Histogram("h", []float64{1}).Observe(0.5)
		rd.Audit.Add(AuditEntry{At: 5, Kind: AuditPlace, Reason: ReasonFresh})
		rd.Sweep.Start()
		eng.Run(2 * sim.Millisecond)
		rd.Sweep.Stop()
		rep := &Report{Schema: ReportSchema, Scheme: "hermes", Seed: 1}
		rd.Fill(rep)
		return rep
	}
	var j1, j2, c1, c2 bytes.Buffer
	r1, r2 := build(), build()
	if err := r1.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON reports differ between identical builds")
	}
	if err := r1.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("CSV reports differ between identical builds")
	}
	if !strings.Contains(c1.String(), "counter,a.one,,1") {
		t.Fatalf("missing counter row:\n%s", c1.String())
	}
	if !strings.Contains(c1.String(), "series,b.two,1000000,2") {
		t.Fatalf("missing series row:\n%s", c1.String())
	}
	var txt bytes.Buffer
	if err := r1.RenderText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "audit: 1 entries") {
		t.Fatalf("text summary missing audit:\n%s", txt.String())
	}
}
