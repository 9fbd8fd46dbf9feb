// Package timeseries is the simulation-clock flight recorder: bounded,
// deterministic time series of per-entity fabric state (queue depths, link
// utilization, ECN-mark and drop rates), Hermes path-state occupancy, and
// transport aggregates, plus an event log of Hermes path-state transitions
// with their cause. It is the temporal complement of internal/telemetry
// (end-of-run aggregates) and internal/trace (per-flow spans): the layer
// that answers "what did the fabric look like at t, and when did Algorithm 1
// change its mind". It also holds Log, the bounded append-only log that
// every event sink (decision log, trace, transitions, alert edges) stores
// its records in.
//
// Everything is driven by the virtual clock, so a recording is a pure
// function of (config, seed). A series is stored in blocks of blockRows
// rows: the newest block raw, every full block sealed into its smallest
// exact form. A ring cap drops whole sealed blocks, so a capped series
// stores at most Cap+blockRows-1 rows however long the run is.
package timeseries

import (
	"math"
	"sort"
)

// blockRows is the number of rows in one block of a series. Every series
// of a Columns shares the same block boundaries.
const blockRows = 64

// zeroBlock is the one word every all-zero sealed block shares.
var zeroBlock = []uint64{0}

// column is one series: its sealed blocks, oldest first, then the open
// block, which holds the newest rows as raw float64 bits. A sealed block's
// length says how it is encoded:
//
//   - 1 word: every row holds that word (zeroBlock when it is 0);
//   - blockRows/2 words: two float32s per word, the low half first, when
//     every row converts to float32 and back to the same bits;
//   - blockRows words: the raw float64 bits.
//
// Rows are compared by their bits, so -0 and each NaN payload survive.
type column struct {
	sealed [][]uint64
	open   []uint64
}

// seal encodes the full open block and starts an empty one.
func (col *column) seal() {
	b := col.open
	constant, narrow := true, true
	for _, w := range b {
		constant = constant && w == b[0]
		narrow = narrow && math.Float64bits(float64(float32(math.Float64frombits(w)))) == w
	}
	switch {
	case constant && b[0] == 0:
		col.sealed = append(col.sealed, zeroBlock)
	case constant:
		col.sealed = append(col.sealed, []uint64{b[0]})
	case narrow:
		packed := make([]uint64, blockRows/2)
		for i, w := range b {
			f := math.Float32bits(float32(math.Float64frombits(w)))
			packed[i/2] |= uint64(f) << (32 * (i % 2))
		}
		col.sealed = append(col.sealed, packed)
	default:
		// Raw: the block keeps the open buffer itself.
		col.sealed = append(col.sealed, b)
		col.open = make([]uint64, 0, blockRows)
		return
	}
	col.open = b[:0]
}

// read decodes the stored rows from row from on into dst, which has room
// for exactly those rows. Row 0 is the first row of the first sealed block.
func (col *column) read(from int, dst []float64) {
	if len(dst) == 0 {
		return // from may lie past the last block
	}
	lo := from % blockRows
	for _, b := range col.sealed[from/blockRows:] {
		switch len(b) {
		case 1:
			v := math.Float64frombits(b[0])
			for i := lo; i < blockRows; i++ {
				dst[i-lo] = v
			}
		case blockRows / 2:
			for i := lo; i < blockRows; i++ {
				dst[i-lo] = float64(math.Float32frombits(uint32(b[i/2] >> (32 * (i % 2)))))
			}
		default:
			for i := lo; i < blockRows; i++ {
				dst[i-lo] = math.Float64frombits(b[i])
			}
		}
		dst = dst[blockRows-lo:]
		lo = 0
	}
	for i, w := range col.open[lo:] {
		dst[i] = math.Float64frombits(w)
	}
}

// Columns is a set of named float64 series aligned on shared sample
// instants, with an optional ring cap. When the cap is reached the oldest
// row is discarded for each new one and Truncated counts the loss; with
// Cap <= 0 rows accumulate without bound (the report sweep's setting).
//
// Columns created after rows already exist are zero-backfilled so that
// every column always has exactly Len() values — one per retained instant —
// including under ring truncation.
//
// Storage is blocked: stored row i of every column lies in block
// i/blockRows. A discarded row stays stored (skip counts them) until its
// whole block is discarded, so the instants and each column hold at most
// Cap+blockRows-1 rows.
type Columns struct {
	// Cap bounds the retained rows (<= 0 = unbounded). Set before the
	// first Append; changing it later is not supported.
	Cap int

	times []int64 // stored instants; the first skip are discarded
	skip  int
	names []string // registration order, parallel to cols
	index map[string]int
	cols  []column

	truncated int
}

// Len returns the number of retained rows.
func (c *Columns) Len() int { return len(c.times) - c.skip }

// Truncated returns the number of rows discarded to honor Cap.
func (c *Columns) Truncated() int { return c.truncated }

// Append opens a new row at instant at, zero-filled across every column.
// Call Put afterwards to set the row's values. Rows are sealed here, when
// the next row opens, so Put can still change the newest row.
func (c *Columns) Append(at int64) {
	if n := len(c.times); n > 0 && n%blockRows == 0 {
		for i := range c.cols {
			c.cols[i].seal()
		}
	}
	if c.Cap > 0 && c.Len() == c.Cap {
		c.skip++
		c.truncated++
		if c.skip == blockRows {
			// The oldest block holds only discarded rows: drop it.
			c.times = c.times[blockRows:]
			c.skip = 0
			for i := range c.cols {
				col := &c.cols[i]
				col.sealed[0] = nil
				col.sealed = col.sealed[1:]
			}
		}
	}
	c.times = append(c.times, at)
	for i := range c.cols {
		c.cols[i].open = append(c.cols[i].open, 0)
	}
}

// Put sets the named column's value for the current (most recent) row,
// creating the column zero-backfilled over all earlier retained rows on
// first use. Put before any Append is a no-op.
func (c *Columns) Put(name string, v float64) {
	if len(c.times) == 0 {
		return
	}
	c.set(c.column(name), v)
}

// set writes column i's value for the current row.
func (c *Columns) set(i int, v float64) {
	open := c.cols[i].open
	open[len(open)-1] = math.Float64bits(v)
}

// latest returns column i's value at the current row.
func (c *Columns) latest(i int) float64 {
	open := c.cols[i].open
	return math.Float64frombits(open[len(open)-1])
}

// column returns the named column's index, creating the column on first
// use: shared zero blocks for every sealed block, and a zeroed open block
// for the rows since. Call it only after the first Append.
func (c *Columns) column(name string) int {
	i, ok := c.index[name]
	if !ok {
		if c.index == nil {
			c.index = map[string]int{}
		}
		i = len(c.cols)
		c.index[name] = i
		c.names = append(c.names, name)
		n := len(c.times) - 1
		col := column{
			sealed: make([][]uint64, n/blockRows),
			open:   make([]uint64, n%blockRows+1, blockRows),
		}
		for b := range col.sealed {
			col.sealed[b] = zeroBlock
		}
		c.cols = append(c.cols, col)
	}
	return i
}

// load installs a fully-materialized chronological column, one value per
// stored instant (the loaders' path: a loaded recording stores no
// discarded rows).
func (c *Columns) load(name string, v []float64) {
	col := column{open: make([]uint64, 0, blockRows)}
	for j, x := range v {
		if j > 0 && j%blockRows == 0 {
			col.seal()
		}
		col.open = append(col.open, math.Float64bits(x))
	}
	if i, ok := c.index[name]; ok {
		c.cols[i] = col
		return
	}
	if c.index == nil {
		c.index = map[string]int{}
	}
	c.index[name] = len(c.cols)
	c.names = append(c.names, name)
	c.cols = append(c.cols, col)
}

// Times returns the retained sample instants in chronological order.
func (c *Columns) Times() []int64 { return c.timesFrom(0) }

// timesFrom returns the retained instants from retained row off on.
func (c *Columns) timesFrom(off int) []int64 {
	out := make([]int64, c.Len()-off)
	copy(out, c.times[c.skip+off:])
	return out
}

// Names returns the column names in sorted order (the deterministic
// iteration order for exports).
func (c *Columns) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	sort.Strings(out)
	return out
}

// Series returns the named column in chronological order, or nil when the
// column does not exist.
func (c *Columns) Series(name string) []float64 {
	i, ok := c.index[name]
	if !ok {
		return nil
	}
	return c.seriesFrom(i, 0)
}

// seriesFrom decodes column i from retained row off on.
func (c *Columns) seriesFrom(i, off int) []float64 {
	out := make([]float64, c.Len()-off)
	c.cols[i].read(c.skip+off, out)
	return out
}
