package timeseries

import (
	"sync"
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
)

// TestSnapshotSinceIncremental: a poll loop over a growing recording sees
// every row exactly once, with cursors that chain.
func TestSnapshotSinceIncremental(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, sim.Millisecond, 100)
	v := 0.0
	r.Register("x", func() float64 { return v })

	var c Cursor
	var got []float64
	for i := 0; i < 5; i++ {
		v = float64(i)
		r.Snap()
		d := r.SnapshotSince(c)
		if d.Rows() != 1 {
			t.Fatalf("poll %d: got %d rows, want 1", i, d.Rows())
		}
		if d.Reset {
			t.Fatalf("poll %d: unexpected reset", i)
		}
		got = append(got, d.Series["x"][0])
		c = d.Cursor
	}
	for i, g := range got {
		if g != float64(i) {
			t.Fatalf("row %d = %v, want %d", i, g, i)
		}
	}
	// Nothing new: empty delta, cursor stable.
	d := r.SnapshotSince(c)
	if d.Rows() != 0 || len(d.Transitions) != 0 || d.Cursor != c {
		t.Fatalf("idle poll returned data: %+v", d)
	}
	// Zero cursor returns the whole window plus meta.
	full := r.SnapshotSince(Cursor{})
	if full.Rows() != 5 || full.Meta == nil {
		t.Fatalf("full snapshot: rows=%d meta=%v", full.Rows(), full.Meta)
	}
	if full.Meta.IntervalNs != int64(sim.Millisecond) || full.Meta.Cap != 100 {
		t.Fatalf("meta not defaulted: %+v", full.Meta)
	}

	// Past the first sealed blocks, a cursor on either side of a block
	// boundary reads exactly the rows after it.
	u := NewSweep(eng, sim.Millisecond)
	blockSeries(u)
	for range 3*blockRows + 5 {
		u.Snap()
	}
	for _, seq := range []uint64{1, blockRows - 1, blockRows, blockRows + 1, 2*blockRows - 1, 2 * blockRows, 3 * blockRows, 3*blockRows + 4} {
		checkSuffix(t, u, seq, false)
	}
}

// blockSeries registers one series of each sealed block form on r: all
// zero, constant, float32-exact and raw, plus one that changes form from
// block to block.
func blockSeries(r *Recorder) {
	n := 0.0
	r.Register("zero", func() float64 { return 0 })
	r.Register("const", func() float64 { return -7.25 })
	r.Register("f32", func() float64 { n++; return n })
	r.Register("raw", func() float64 { return n / 3 })
	r.Register("mixed", func() float64 {
		if int(n)/blockRows%2 == 0 {
			return 0
		}
		return n / 7
	})
}

// checkSuffix requires the delta from cursor seq to be the matching suffix
// of a full read: the rows after seq, or, with Reset, the whole window.
func checkSuffix(t *testing.T, r *Recorder, seq uint64, reset bool) {
	t.Helper()
	full := r.SnapshotSince(Cursor{})
	d := r.SnapshotSince(Cursor{Seq: seq})
	if d.Reset != reset {
		t.Fatalf("cursor %d: Reset = %v, want %v", seq, d.Reset, reset)
	}
	off := 0
	if !reset {
		off = int(seq) - full.TruncatedSamples
	}
	if d.Cursor != full.Cursor || d.Rows() != full.Rows()-off {
		t.Fatalf("cursor %d: %d rows to %+v, want %d to %+v", seq, d.Rows(), d.Cursor, full.Rows()-off, full.Cursor)
	}
	for i, at := range d.TimesNs {
		if at != full.TimesNs[off+i] {
			t.Fatalf("cursor %d: TimesNs = %v, want %v", seq, d.TimesNs, full.TimesNs[off:])
		}
	}
	for name, want := range full.Series {
		got := d.Series[name]
		if len(got) != len(want)-off {
			t.Fatalf("cursor %d: series %q has %d rows, want %d", seq, name, len(got), len(want)-off)
		}
		for i, v := range got {
			if v != want[off+i] {
				t.Fatalf("cursor %d: series %q = %v, want %v", seq, name, got, want[off:])
			}
		}
	}
}

// TestSnapshotSinceRingTruncation: a cursor that fell off the ring resumes
// at the oldest retained row with Reset set — the SSE resume contract.
func TestSnapshotSinceRingTruncation(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, sim.Millisecond, 4)
	v := 0.0
	r.Register("x", func() float64 { return v })

	v = 0
	r.Snap()
	first := r.SnapshotSince(Cursor{})
	if first.Rows() != 1 || first.Reset {
		t.Fatalf("first delta: %+v", first)
	}

	// Push 9 more rows through a cap-4 ring: rows 0..5 are gone.
	for i := 1; i < 10; i++ {
		v = float64(i)
		r.Snap()
	}
	d := r.SnapshotSince(first.Cursor)
	if !d.Reset {
		t.Fatal("expected Reset after ring truncation")
	}
	if d.Rows() != 4 {
		t.Fatalf("got %d rows after truncation, want the 4 retained", d.Rows())
	}
	want := []float64{6, 7, 8, 9}
	for i, w := range want {
		if d.Series["x"][i] != w {
			t.Fatalf("retained window = %v, want %v", d.Series["x"], want)
		}
	}
	if d.TruncatedSamples != 6 {
		t.Fatalf("TruncatedSamples = %d, want 6", d.TruncatedSamples)
	}
	if d.Cursor.Seq != 10 {
		t.Fatalf("cursor seq = %d, want 10", d.Cursor.Seq)
	}
	// Resuming from the new cursor is clean again.
	if nxt := r.SnapshotSince(d.Cursor); nxt.Rows() != 0 || nxt.Reset {
		t.Fatalf("resume after reset not clean: %+v", nxt)
	}

	// A ring of one block and one row evicts whole blocks. After 4.5
	// blocks of rows, rows 0-223 are discarded, the retained window starts
	// inside block 3, and blocks 0-2 are gone from storage.
	e := NewRecorder(eng, sim.Millisecond, blockRows+1)
	blockSeries(e)
	for range 4*blockRows + blockRows/2 {
		e.Snap()
	}
	oldest := uint64(e.TruncatedSamples())
	if oldest != 3*blockRows+blockRows/2-1 {
		t.Fatalf("truncated %d rows, want %d", oldest, 3*blockRows+blockRows/2-1)
	}
	if got := len(e.cols.cols[0].sealed); got != 1 {
		t.Fatalf("%d sealed blocks stored, want block 3 alone", got)
	}
	for _, seq := range []uint64{1, blockRows, 3 * blockRows, oldest - 1} {
		checkSuffix(t, e, seq, true)
	}
	for _, seq := range []uint64{oldest, oldest + 1, 4*blockRows - 1, 4 * blockRows, 4*blockRows + 1, oldest + blockRows} {
		checkSuffix(t, e, seq, false)
	}
}

// TestSnapshotSinceTransitions: the transition cursor is independent of the
// row cursor and survives row truncation.
func TestSnapshotSinceTransitions(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, sim.Millisecond, 4)
	r.Transitions = NewLog[Transition](3)
	r.Transitions.Add(Transition{AtNs: 1, Path: 0, From: "good", To: "gray"})
	d := r.SnapshotSince(Cursor{})
	if len(d.Transitions) != 1 || d.Cursor.Transition != 1 {
		t.Fatalf("first transition delta: %+v", d)
	}
	r.Transitions.Add(Transition{AtNs: 2, Path: 1, From: "gray", To: "failed"})
	r.Transitions.Add(Transition{AtNs: 3, Path: 2, From: "good", To: "gray"})
	r.Transitions.Add(Transition{AtNs: 4, Path: 3, From: "good", To: "gray"}) // over cap: dropped
	d = r.SnapshotSince(d.Cursor)
	if len(d.Transitions) != 2 || d.Cursor.Transition != 3 {
		t.Fatalf("second transition delta: %+v", d)
	}
	if d.DroppedTransitions != 1 {
		t.Fatalf("DroppedTransitions = %d, want 1", d.DroppedTransitions)
	}
}

// TestConcurrentSnapshotNoTornRows is the sealed-row regression test: one
// goroutine samples (as the simulation does) while another polls
// SnapshotSince. Two probes always return the same value, so any row where
// the columns disagree — a row published before every probe value landed —
// is a torn read. Run under -race this also proves the locking is sound.
func TestConcurrentSnapshotNoTornRows(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, sim.Millisecond, 64) // small cap: wrap constantly
	v := 0.0
	r.Register("a", func() float64 { return v })
	r.Register("b", func() float64 { return v })

	const rows = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rows; i++ {
			v = float64(i + 1)
			r.Snap()
			if i%64 == 0 {
				r.Transitions.Add(Transition{AtNs: int64(i), Path: i % 4, From: "good", To: "gray", Cause: CauseProbe})
			}
		}
	}()

	var c Cursor
	polls, seen := 0, 0
	check := func(d Delta) {
		a, b := d.Series["a"], d.Series["b"]
		if len(a) != d.Rows() || len(b) != d.Rows() {
			t.Errorf("ragged delta: %d times, %d a, %d b", d.Rows(), len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("torn row: a=%v b=%v", a[i], b[i])
			}
			if a[i] == 0 {
				t.Errorf("unsealed (zero) row observed")
			}
		}
	}
	for {
		select {
		case <-stop:
		default:
		}
		d := r.SnapshotSince(c)
		check(d)
		seen += d.Rows()
		c = d.Cursor
		polls++
		select {
		case <-stop:
			// Drain the tail once the writer is done.
			d := r.SnapshotSince(c)
			check(d)
			if got := int(d.Cursor.Seq); got != rows {
				t.Fatalf("final seq = %d, want %d", got, rows)
			}
			if polls < 2 {
				t.Fatalf("reader only polled %d times", polls)
			}
			return
		default:
		}
	}
}
