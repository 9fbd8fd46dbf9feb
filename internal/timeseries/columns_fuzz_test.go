package timeseries

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"testing"
)

// ringColumns is Columns as it was before blocked storage: one []float64
// per column, used as a ring once Cap rows are retained. FuzzFlightColumns
// holds Columns to it.
type ringColumns struct {
	Cap int

	times []int64
	names []string // registration order
	index map[string]int
	cols  [][]float64

	head      int // ring start, meaningful once saturated
	truncated int
}

func (c *ringColumns) Len() int       { return len(c.times) }
func (c *ringColumns) Truncated() int { return c.truncated }

func (c *ringColumns) saturated() bool { return c.Cap > 0 && len(c.times) == c.Cap }

// cur returns the storage index of the most recently appended row.
func (c *ringColumns) cur() int {
	if c.saturated() {
		return (c.head + c.Cap - 1) % c.Cap
	}
	return len(c.times) - 1
}

func (c *ringColumns) Append(at int64) {
	if c.saturated() {
		// Overwrite the oldest slot and advance the ring start.
		slot := c.head
		c.times[slot] = at
		for _, col := range c.cols {
			col[slot] = 0
		}
		c.head = (c.head + 1) % c.Cap
		c.truncated++
		return
	}
	c.times = append(c.times, at)
	for i := range c.cols {
		c.cols[i] = append(c.cols[i], 0)
	}
}

func (c *ringColumns) Put(name string, v float64) {
	if len(c.times) == 0 {
		return
	}
	i, ok := c.index[name]
	if !ok {
		if c.index == nil {
			c.index = map[string]int{}
		}
		i = len(c.cols)
		c.index[name] = i
		c.names = append(c.names, name)
		c.cols = append(c.cols, make([]float64, len(c.times)))
	}
	c.cols[i][c.cur()] = v
}

func (c *ringColumns) Times() []int64 {
	n := len(c.times)
	out := make([]int64, n)
	for i := range out {
		out[i] = c.times[(c.head+i)%n]
	}
	return out
}

func (c *ringColumns) Names() []string {
	out := append([]string(nil), c.names...)
	sort.Strings(out)
	return out
}

func (c *ringColumns) Series(name string) []float64 {
	i, ok := c.index[name]
	if !ok {
		return nil
	}
	col := c.cols[i]
	n := len(col)
	out := make([]float64, n)
	for j := range out {
		out[j] = col[(c.head+j)%n]
	}
	return out
}

// fuzzCaps are the ring caps FuzzFlightColumns picks from: unbounded, tiny,
// and either side of one and of two blocks.
var fuzzCaps = []int{0, 1, 5, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 3}

// maxFuzzRows bounds the rows one FuzzFlightColumns input appends, so
// that comparing every series after every op stays fast.
const maxFuzzRows = 10 * blockRows

// fuzzValue returns row i's value of class k. Runs of one class fill
// blocks of every sealed form: all zero, constant (-0 and +Inf among
// them), float32-exact, and raw, which arbitrary float64s and NaNs whose
// payload float32 cannot hold (or whose quiet bit is clear) must fall to.
// Classes 0-4 are finite.
func fuzzValue(k byte, i int) float64 {
	switch k % 9 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 2.5e6
	case 3:
		return float64(i%300 - 100) // float32-exact integers
	case 4:
		return float64(i) / 3
	case 5:
		return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i%7)<<29) // float32 keeps these payloads
	case 6:
		return math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i%5)) // it drops these
	case 7:
		return math.Float64frombits(0x7ff0_0000_0000_0000 | uint64(i%3+1)<<29) // signaling
	default:
		return math.Inf(1)
	}
}

// FuzzFlightColumns drives Columns and ringColumns with one stream of ops
// and requires the same observable recording after every op: Len,
// Truncated, Times, Names, every series bit for bit, the newest value,
// and SnapshotSince from a cursor the stream picks. A recording of finite
// values must then survive a JSONL and a CSV round trip.
//
// Each op is a byte, op%4 selecting: Append (next byte: time step), Put to
// an existing column (column, value class), Put to a new column (value
// class), or a run of Appends that each Put one column (rows, column,
// value class). One more byte per op is the snapshot cursor.
func FuzzFlightColumns(f *testing.F) {
	// Each line is one op, its arguments and a cursor byte.
	finiteOps := []byte{
		0, 1, 0, // Append
		2, 3, 0, // c0 (float32-exact)
		2, 2, 1, // c1 (constant)
		2, 4, 1, // c2 (raw)
		3, 150, 0, 0, 5, // 150 rows, c0 zero: every block all zero
		3, 130, 1, 2, 200, // c1 constant
		3, 140, 2, 3, 60, // c2 float32-exact
		3, 129, 0, 4, 20, // c0 raw
		3, 128, 1, 1, 90, // c1 -0
		2, 3, 3, // c3, created late: zero backfill
		1, 3, 4, 17, // Put c3
		0, 9, 255, // Append
	}
	nonFiniteOps := []byte{
		0, 1, 0,
		2, 5, 0, 2, 6, 1, 2, 7, 1,
		3, 128, 0, 5, 33, // NaNs float32 keeps
		3, 128, 1, 6, 7, // NaNs it drops
		3, 128, 2, 7, 250, // signaling NaNs
		3, 130, 0, 8, 64, // +Inf
	}
	f.Add(uint8(0), []byte{2, 3, 0, 0, 1, 0, 1, 0, 4, 0}) // Put before Append is a no-op
	for i := range fuzzCaps {
		f.Add(uint8(i), finiteOps)
		f.Add(uint8(i), nonFiniteOps)
	}
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		if len(ops) > 256 {
			return
		}
		rec := &Recorder{}
		rec.cols.Cap = fuzzCaps[int(capSel)%len(fuzzCaps)]
		c := &rec.cols
		o := &ringColumns{Cap: c.Cap}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var at int64
		row, newCols := 0, 0
		finite := true
		put := func(name string, k byte) {
			v := fuzzValue(k, row)
			finite = finite && k%9 < 5
			c.Put(name, v)
			o.Put(name, v)
		}
		existing := func(b byte) string {
			names := o.Names()
			if len(names) == 0 {
				return "c0"
			}
			return names[int(b)%len(names)]
		}
		appendRow := func(step byte) {
			if row == maxFuzzRows {
				return
			}
			at += int64(step) + 1
			row++
			c.Append(at)
			o.Append(at)
		}
		for len(ops) > 0 {
			switch op := next(); op % 4 {
			case 0:
				appendRow(next())
			case 1:
				put(existing(next()), next())
			case 2:
				put("c"+strconv.Itoa(newCols), next())
				newCols++
			case 3:
				n, name, k := int(next()), existing(next()), next()
				for range n {
					appendRow(0)
					put(name, k)
				}
			}
			sameColumns(t, c, o)
			sameLatest(t, rec, o)
			sameSnapshot(t, rec, o, uint64(next()))
		}
		if !finite {
			return
		}
		var a, b bytes.Buffer
		if err := rec.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sameColumns(t, &back.cols, o)
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("JSONL round trip differs:\n%s\n%s", a.String(), b.String())
		}
		a.Reset()
		b.Reset()
		if err := rec.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		back, err = ReadCSV(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sameColumns(t, &back.cols, o)
		if err := back.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("CSV round trip differs:\n%s\n%s", a.String(), b.String())
		}
	})
}

// sameColumns fails unless c reads exactly as o, each value bit for bit.
func sameColumns(t *testing.T, c *Columns, o *ringColumns) {
	t.Helper()
	if c.Len() != o.Len() || c.Truncated() != o.Truncated() {
		t.Fatalf("Len %d, Truncated %d; want %d, %d", c.Len(), c.Truncated(), o.Len(), o.Truncated())
	}
	if got, want := c.Times(), o.Times(); !equalInts(got, want) {
		t.Fatalf("Times = %v, want %v", got, want)
	}
	names := o.Names()
	if got := c.Names(); len(got) != len(names) {
		t.Fatalf("Names = %v, want %v", got, names)
	}
	for i, name := range c.Names() {
		if name != names[i] {
			t.Fatalf("Names = %v, want %v", c.Names(), names)
		}
		if got, want := c.Series(name), o.Series(name); !sameBits(got, want) {
			t.Fatalf("Series %q = %v, want %v", name, got, want)
		}
	}
	if c.Series("absent") != nil {
		t.Fatal("Series of an absent column is not nil")
	}
}

// sameLatest compares every column's newest value through LatestValue.
func sameLatest(t *testing.T, rec *Recorder, o *ringColumns) {
	t.Helper()
	for _, name := range o.Names() {
		got, ok := rec.LatestValue(name)
		want := o.cols[o.index[name]][o.cur()]
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LatestValue(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
}

// sameSnapshot checks SnapshotSince from row cursor seq against the
// matching suffix of the oracle: the rows after seq, or the whole retained
// window with Reset when seq fell off the ring or lies past its end.
func sameSnapshot(t *testing.T, rec *Recorder, o *ringColumns, seq uint64) {
	t.Helper()
	oldest := uint64(o.Truncated())
	newest := oldest + uint64(o.Len())
	seq %= newest + 2
	d := rec.SnapshotSince(Cursor{Seq: seq})
	from, reset := seq, false
	if seq < oldest || seq > newest {
		from, reset = oldest, seq != 0
	}
	off := int(from - oldest)
	if d.Reset != reset || d.Cursor.Seq != newest || d.TruncatedSamples != o.Truncated() {
		t.Fatalf("cursor %d: Reset %v, Cursor %d, TruncatedSamples %d; want %v, %d, %d",
			seq, d.Reset, d.Cursor.Seq, d.TruncatedSamples, reset, newest, o.Truncated())
	}
	if off == o.Len() {
		if d.Rows() != 0 || d.Series != nil {
			t.Fatalf("cursor %d: %d rows and %d series past the newest row", seq, d.Rows(), len(d.Series))
		}
		return
	}
	if want := o.Times()[off:]; !equalInts(d.TimesNs, want) {
		t.Fatalf("cursor %d: TimesNs = %v, want %v", seq, d.TimesNs, want)
	}
	if len(d.Series) != len(o.names) {
		t.Fatalf("cursor %d: %d series, want %d", seq, len(d.Series), len(o.names))
	}
	for _, name := range o.names {
		if got, want := d.Series[name], o.Series(name)[off:]; !sameBits(got, want) {
			t.Fatalf("cursor %d: series %q = %v, want %v", seq, name, got, want)
		}
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
