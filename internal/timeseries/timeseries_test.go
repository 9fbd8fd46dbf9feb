package timeseries

import (
	"bytes"
	"math"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
)

func TestColumnsAppendPut(t *testing.T) {
	var c Columns
	c.Append(10)
	c.Put("a", 1)
	c.Append(20)
	c.Put("a", 2)
	c.Put("b", 7)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Times(); got[0] != 10 || got[1] != 20 {
		t.Fatalf("Times = %v", got)
	}
	if got := c.Series("a"); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Series a = %v", got)
	}
	// b was registered at the second instant: earlier rows are zero-backfilled.
	if got := c.Series("b"); got[0] != 0 || got[1] != 7 {
		t.Fatalf("Series b = %v, want [0 7]", got)
	}
	if got := c.Series("missing"); got != nil {
		t.Fatalf("Series missing = %v, want nil", got)
	}
}

func TestColumnsEveryColumnMatchesLen(t *testing.T) {
	var c Columns
	c.Cap = 5
	for i := 0; i < 13; i++ {
		c.Append(int64(i))
		c.Put("early", float64(i))
		if i == 7 {
			// Register a column mid-run, after the ring has already wrapped.
			c.Put("late", 100)
		}
		if i > 9 {
			c.Put("late", float64(100+i))
		}
	}
	for _, name := range c.Names() {
		if got := len(c.Series(name)); got != c.Len() {
			t.Fatalf("series %q has %d values, want Len()=%d", name, got, c.Len())
		}
	}
}

func TestColumnsRingTruncation(t *testing.T) {
	var c Columns
	c.Cap = 4
	for i := 0; i < 10; i++ {
		c.Append(int64(i * 10))
		c.Put("v", float64(i))
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("Len = %d, want cap 4", got)
	}
	if got := c.Truncated(); got != 6 {
		t.Fatalf("Truncated = %d, want 6", got)
	}
	wantT := []int64{60, 70, 80, 90}
	wantV := []float64{6, 7, 8, 9}
	times, vals := c.Times(), c.Series("v")
	for i := range wantT {
		if times[i] != wantT[i] || vals[i] != wantV[i] {
			t.Fatalf("row %d = (%d, %g), want (%d, %g)", i, times[i], vals[i], wantT[i], wantV[i])
		}
	}
}

// TestRecorderCapRingAndBackfill checks a capped recorder: the oldest
// rows drop first, and a probe registered mid-run, after the ring wrapped,
// is zero-backfilled so every series keeps one value per retained row.
func TestRecorderCapRingAndBackfill(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng, sim.Millisecond, 3)
	var events float64
	rec.Register("events", func() float64 { return events })
	rec.Start()
	for i := 1; i <= 5; i++ {
		events++
		eng.Run(sim.Time(i) * sim.Millisecond)
		if i == 4 {
			rec.Register("late", func() float64 { return 9 })
		}
	}
	rec.Stop()
	times := rec.Times()
	if len(times) != 3 || rec.TruncatedSamples() != 2 {
		t.Fatalf("retained %d rows (truncated %d), want 3 (2)", len(times), rec.TruncatedSamples())
	}
	// Oldest-first, newest survive: rows at 3, 4, 5 ms.
	if times[0] != int64(3*sim.Millisecond) || times[2] != int64(5*sim.Millisecond) {
		t.Fatalf("times = %v", times)
	}
	for _, name := range rec.Names() {
		if got := len(rec.Series(name)); got != len(times) {
			t.Fatalf("series %q has %d values, want %d", name, got, len(times))
		}
	}
	if got := rec.Series("events"); got[0] != 3 || got[2] != 5 {
		t.Fatalf("events series = %v, want [3 4 5]", got)
	}
	if got := rec.Series("late"); got[0] != 0 || got[1] != 0 || got[2] != 9 {
		t.Fatalf("late series = %v, want [0 0 9]", got)
	}
}

// TestRecorderRates checks each rate kind against the counter change over
// one interval, with the baseline taken at Start.
func TestRecorderRates(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewSweep(eng, 100)
	c := 40.0
	read := func() float64 { return c }
	rec.RegisterRate("value", read, Value)
	rec.RegisterRate("delta", read, PerInterval)
	rec.RegisterRate("frac", read, Fraction)
	rec.RegisterRate("gbps", read, Gbps)
	rec.Start()
	c += 50
	eng.Run(100)
	for name, want := range map[string]float64{"value": 90, "delta": 50, "frac": 0.5, "gbps": 4} {
		if got := rec.Series(name); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	// A rate registered on a running recorder baselines at registration.
	rec.RegisterRate("late", read, PerInterval)
	c += 7
	eng.Run(200)
	if got := rec.Series("late"); got[1] != 7 {
		t.Fatalf("late rate = %v, want [0 7]", got)
	}
}

// TestColumnsBlockStorage guards the sealed block forms after ten blocks
// of rows: an all-zero column shares one word per sealed block, a constant
// column holds one word per block, a float32-exact column at most 4 B per
// row and any other column at most 8 B per row. A column created late
// backfills with the shared zero word.
func TestColumnsBlockStorage(t *testing.T) {
	var c Columns
	for i := range 10 * blockRows {
		c.Append(int64(i))
		c.Put("zero", 0)
		c.Put("const", 1e-300)
		c.Put("f32", float64(i%1000)-500.5)
		c.Put("raw", float64(i)/10)
		if i == 5*blockRows {
			c.Put("late", 1)
		}
	}
	words := func(name string) (perBlock []int) {
		col := c.cols[c.index[name]]
		if len(col.sealed) != 9 {
			t.Fatalf("%s: %d sealed blocks, want 9", name, len(col.sealed))
		}
		for _, b := range col.sealed {
			perBlock = append(perBlock, len(b))
		}
		return perBlock
	}
	for _, name := range []string{"zero", "const"} {
		for b, n := range words(name) {
			if n != 1 {
				t.Fatalf("%s: block %d holds %d words, want 1", name, b, n)
			}
		}
	}
	for _, name := range []string{"zero", "late"} {
		for b, blk := range c.cols[c.index[name]].sealed[:5] {
			if &blk[0] != &zeroBlock[0] {
				t.Fatalf("%s: all-zero block %d does not share the zero word", name, b)
			}
		}
	}
	for b, n := range words("f32") {
		if n*8 > 4*blockRows {
			t.Fatalf("f32: block %d holds %d B for %d rows", b, n*8, blockRows)
		}
	}
	for b, n := range words("raw") {
		if n*8 > 8*blockRows {
			t.Fatalf("raw: block %d holds %d B for %d rows", b, n*8, blockRows)
		}
	}
	if got := c.Series("const"); got[0] != 1e-300 || got[len(got)-1] != 1e-300 {
		t.Fatalf("const series reads %v", got)
	}
}

func TestColumnsPutBeforeAppendIsNoop(t *testing.T) {
	var c Columns
	c.Put("a", 1)
	if c.Len() != 0 || len(c.Names()) != 0 {
		t.Fatalf("Put before Append created state: len=%d names=%v", c.Len(), c.Names())
	}
}

func TestRecorderSamplesOnSimClock(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, 100, 0)
	n := 0.0
	r.Register("n", func() float64 { n++; return n })
	ticks := 0
	r.AtTick(func() { ticks++ })
	r.Start()
	eng.Run(450)
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 samples in 450 ticks at interval 100", got)
	}
	if got := r.Times(); got[0] != 100 || got[3] != 400 {
		t.Fatalf("Times = %v", got)
	}
	// Probe called exactly once per retained instant (stateful probes are safe).
	if got := r.Series("n"); got[0] != 1 || got[3] != 4 {
		t.Fatalf("Series n = %v, want [1 2 3 4]", got)
	}
	if ticks != 4 {
		t.Fatalf("tick hooks ran %d times, want 4", ticks)
	}
	r.Stop()
	eng.Run(1000)
	if got := r.Len(); got != 4 {
		t.Fatalf("Len after Stop = %d, want 4", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Register("x", func() float64 { return 0 })
	r.AtTick(func() {})
	r.Start()
	r.Stop()
	r.Snap()
	if r.Len() != 0 || r.Times() != nil || r.Names() != nil || r.Series("x") != nil {
		t.Fatal("nil recorder leaked state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteCSV: err=%v len=%d", err, buf.Len())
	}
}

func TestRecorderRegisterReplaces(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, 100, 0)
	r.Register("x", func() float64 { return 1 })
	r.Register("x", func() float64 { return 2 })
	r.Snap()
	if got := r.Series("x"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Series x = %v, want [2]", got)
	}
	if got := len(r.Names()); got != 1 {
		t.Fatalf("Names = %v, want one entry", r.Names())
	}
}

func TestTransitionLogCap(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), 100, 0)
	r.Transitions = NewLog[Transition](3)
	for i := 0; i < 5; i++ {
		r.Transitions.Add(Transition{AtNs: int64(i)})
	}
	if got := len(r.Transitions.All()); got != 3 {
		t.Fatalf("kept %d transitions, want 3", got)
	}
	if r.Transitions.Dropped() != 2 {
		t.Fatalf("dropped transitions = %d, want 2", r.Transitions.Dropped())
	}
}

func sampleRecorder(t *testing.T) *Recorder {
	t.Helper()
	eng := sim.NewEngine()
	r := NewRecorder(eng, 100, 6)
	r.Meta = Meta{
		Scheme: "hermes", Workload: "websearch", Load: 0.6, Seed: 42,
		Failure: "flap", IntervalNs: 100, Cap: 6, SimDurationNs: 900,
	}
	i := 0.0
	r.Register("net.queue_bytes{port=leaf0->spine0.0}", func() float64 { i++; return i * 1500 })
	r.Register("hermes.paths_good{leaf=0}", func() float64 { return 4 - i/4 })
	r.Start()
	eng.Run(950)
	r.Transitions.Add(Transition{AtNs: 300, Leaf: 0, Dst: 1, Path: 2, From: "gray", To: "good", Cause: CauseAck})
	r.Transitions.Add(Transition{AtNs: 700, Leaf: 0, Dst: 1, Path: 2, From: "good", To: "failed", Cause: CauseVerdict + "probe-loss"})
	return r
}

func TestJSONLRoundTrip(t *testing.T) {
	r := sampleRecorder(t)
	var a bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := got.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL round trip not byte-identical:\n--- wrote ---\n%s--- reread ---\n%s", a.String(), b.String())
	}
	if got.TruncatedSamples() != r.TruncatedSamples() {
		t.Fatalf("truncated = %d, want %d", got.TruncatedSamples(), r.TruncatedSamples())
	}
	if len(got.Transitions.All()) != 2 || got.Transitions.All()[1].Cause != "verdict:probe-loss" {
		t.Fatalf("transitions = %+v", got.Transitions.All())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sampleRecorder(t)
	var a bytes.Buffer
	if err := r.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("CSV round trip not byte-identical:\n--- wrote ---\n%s--- reread ---\n%s", a.String(), b.String())
	}
	if got.Meta.Scheme != "hermes" || got.Meta.Seed != 42 || math.Abs(got.Meta.Load-0.6) > 1e-12 {
		t.Fatalf("meta = %+v", got.Meta)
	}
}

func TestReadJSONLRejectsRaggedSeries(t *testing.T) {
	in := `{"k":"meta","schema":"hermes-timeseries/v1","interval_ns":100,"cap":0}
{"k":"times","ns":[1,2,3]}
{"k":"series","name":"x","v":[1,2]}
`
	if _, err := ReadJSONL(bytes.NewReader([]byte(in))); err == nil {
		t.Fatal("want error for series shorter than times")
	}
}
