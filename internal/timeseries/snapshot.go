package timeseries

// Cursor addresses a position in a live recording for incremental reads.
// Seq counts rows ever appended (retained or ring-evicted), so it is
// monotone even under truncation; Transition indexes the append-only
// transition log. The zero Cursor means "from the beginning".
type Cursor struct {
	Seq        uint64 `json:"seq"`
	Transition int    `json:"transition"`
}

// Delta is one incremental read of a live recording: every sealed row and
// transition recorded since the request cursor, plus the cursor to resume
// from. All slices are copies — safe to hold after the recorder moves on.
type Delta struct {
	// Meta is included on from-the-beginning reads only. During a live run
	// the identity fields are still blank (the harness stamps them at run
	// end); interval and cap are always valid.
	Meta *Meta `json:"meta,omitempty"`
	// Reset reports that the request cursor preceded the oldest retained
	// row — the ring evicted samples the reader never saw — so TimesNs
	// restarts at the oldest retained instant rather than the cursor.
	Reset bool `json:"reset,omitempty"`
	// Cursor resumes the next read after everything carried here.
	Cursor Cursor `json:"cursor"`

	TimesNs []int64              `json:"times_ns,omitempty"`
	Series  map[string][]float64 `json:"series,omitempty"`

	Transitions []Transition `json:"transitions,omitempty"`

	TruncatedSamples   int `json:"truncated_samples,omitempty"`
	DroppedTransitions int `json:"dropped_transitions,omitempty"`
}

// Rows returns the number of sample rows the delta carries.
func (d *Delta) Rows() int { return len(d.TimesNs) }

// SnapshotSince copies every sealed row and transition recorded since c.
// It never blocks the simulation beyond one row append, and a zero cursor
// returns the full retained window. Readers poll: SnapshotSince(prev.Cursor)
// yields only news, an empty delta (Rows()==0, no transitions) means nothing
// happened since.
//
// Safe for concurrent use with a running simulation; nil-safe.
func (r *Recorder) SnapshotSince(c Cursor) Delta {
	if r == nil {
		return Delta{Cursor: c}
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	d := Delta{}
	if c == (Cursor{}) {
		m := r.Meta
		if m.Schema == "" {
			m.Schema = Schema
		}
		if m.IntervalNs == 0 {
			m.IntervalNs = int64(r.Interval)
		}
		if m.Cap == 0 {
			m.Cap = r.Cap
		}
		d.Meta = &m
	}

	n := r.cols.Len()
	oldest := uint64(r.cols.Truncated())
	newest := oldest + uint64(n)
	from := c.Seq
	switch {
	case from < oldest:
		// The reader's position fell off the ring: restart at the oldest
		// retained row and tell it so (a zero cursor is a fresh read, not
		// a resume, so it reports no reset).
		d.Reset = c.Seq != 0
		from = oldest
	case from > newest:
		// A cursor from a previous (longer) recording; treat as stale.
		d.Reset = true
		from = oldest
	}
	if off := int(from - oldest); off < n {
		// Decode only the rows after the cursor.
		d.TimesNs = r.cols.timesFrom(off)
		d.Series = make(map[string][]float64, len(r.cols.names))
		for i, name := range r.cols.names {
			d.Series[name] = r.cols.seriesFrom(i, off)
		}
	}
	d.Cursor.Seq = newest

	d.Transitions, d.Cursor.Transition, d.DroppedTransitions = r.Transitions.Since(c.Transition)
	d.TruncatedSamples = r.cols.Truncated()
	return d
}
