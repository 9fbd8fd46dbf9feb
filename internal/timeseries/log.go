package timeseries

import (
	"encoding/json"
	"io"
	"sync"
)

// Log is the one storage type of the simulator's event sinks: the Hermes
// decision (audit) log, the trace's events and spans, the flight recorder's
// path-state transitions, and the alert evaluator's lifecycle edges and
// episodes. It is append-only and bounded: each owner fixes its cap, and
// once the cap is reached further records are only counted, so a truncated
// log is distinguishable from a complete one.
//
// A nil *Log is disarmed: Add costs one nil check and every read sees an
// empty log, so recording sites call it unconditionally.
//
// One goroutine (the simulation) writes. Add takes the lock that Since
// holds, so a status-server goroutine may read a live log; All and At hand
// out the log's own storage and belong to the writer's goroutine, or to
// after the run.
type Log[T any] struct {
	mu      sync.Mutex
	max     int
	recs    []T
	dropped int
}

// NewLog builds an empty log that keeps at most max records.
func NewLog[T any](max int) *Log[T] { return &Log[T]{max: max} }

// Add appends v and returns its index, or counts it as dropped and returns
// -1 once the log is full (or disarmed).
func (l *Log[T]) Add(v T) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	i := len(l.recs)
	if i >= l.max {
		l.dropped++
		i = -1
	} else {
		l.recs = append(l.recs, v)
	}
	l.mu.Unlock()
	return i
}

// AddDropped counts n records lost before they reached the log: a reader
// restores an export's truncation marker with it.
func (l *Log[T]) AddDropped(n int) {
	l.mu.Lock()
	l.dropped += n
	l.mu.Unlock()
}

// At returns record i for in-place update by the writer (a trace span
// accruing bytes, an alert episode changing state). The pointer is valid
// until the next Add.
func (l *Log[T]) At(i int) *T { return &l.recs[i] }

// All returns the records in append order. The slice is the log's own:
// do not modify it.
func (l *Log[T]) All() []T {
	if l == nil {
		return nil
	}
	return l.recs
}

// Len returns the number of records kept.
func (l *Log[T]) Len() int {
	if l == nil {
		return 0
	}
	return len(l.recs)
}

// Dropped returns the number of records discarded at the cap.
func (l *Log[T]) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Since copies the records from cursor on (all of them when the cursor is
// out of range) and returns them with the cursor of the next read and the
// drop count. Safe for concurrent use with Add.
func (l *Log[T]) Since(cursor int) (recs []T, next, dropped int) {
	if l == nil {
		return nil, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < 0 || cursor > len(l.recs) {
		cursor = 0
	}
	if cursor < len(l.recs) {
		recs = append([]T(nil), l.recs[cursor:]...)
	}
	return recs, len(l.recs), l.dropped
}

// WriteJSONL writes one JSON object per record, then, when the cap dropped
// any, a {"kind":"truncated","dropped":N} marker, so truncation is visible
// in the export itself.
func (l *Log[T]) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, v := range l.All() {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	if d := l.Dropped(); d > 0 {
		return enc.Encode(struct {
			Kind    string `json:"kind"`
			Dropped int    `json:"dropped"`
		}{"truncated", d})
	}
	return nil
}
