// Package sim provides a deterministic, single-threaded, event-driven
// simulation engine used by the network model. Time is virtual and measured
// in integer nanoseconds; all events scheduled for the same instant fire in
// scheduling order, which makes runs with the same seed fully reproducible.
//
// The engine is built for the packet-forwarding hot path. Every event is
// scheduled at now+d, and a run uses only a handful of distinct delays d
// (link propagation, one serialization time per packet size and link rate,
// the retransmission timeout, the probe interval). Because now never
// decreases and the sequence number always increases, events that share a
// delay arrive already in (at, seq) order, so the pending-event queue keeps
// a small fixed set of FIFO delay lanes, one ring per delay, and sorts
// nothing for them. Delays without a lane, and every event
// while the queue is shallow, go to an inlined 4-ary heap instead. The next
// event is the smallest (at, seq) among the lane heads and the heap root,
// so fire order is exactly (at, seq) however events are split between
// lanes and heap.
//
// Neither choosing nor filing an event scans the lanes. The busy lanes are
// kept in a short array ordered by head key, so the next lane event is
// always the first lane's head; taking it moves that lane back past the
// lanes whose heads are now earlier than its new head, which is seldom more
// than one. A small open-addressing hash index maps each keyed delay to its
// lane, so a schedule finds its lane, or learns that its delay has none, in
// about one probe.
//
// A lane ring holds each event's (at, seq) key inline next to its pointer.
// Cancelling an event in a lane replaces its pointer with a tombstone and
// recycles the event at once, so a backlog of cancelled timers costs one
// ring slot each, not one event. A tombstone keeps its key: it is counted
// by Pending and PendingCensus and dropped unfired in (at, seq) order, so
// cancelling changes nothing a run can observe but its memory. Cancelling
// an event in the heap is lazy: the event stays queued, counted the same
// way, until it reaches the front. Fired and cancelled events are recycled
// through a free list, and ScheduleCall lets callers schedule a pre-bound
// function with two receiver arguments, so the steady state performs no
// allocation at all.
//
// A timer that is pushed back again and again, like a retransmission timer
// re-armed on every ACK, is moved with Reschedule rather than cancelled and
// scheduled anew. An event waiting in a lane that moves to a later time
// takes a new key but keeps its ring slot, so it leaves no tombstone: its
// slot comes due first, and the event then goes, unfired, to the heap under
// its new key. Moving an event that waits in the heap cancels it there and
// files it anew, so a timer that keeps being re-armed holds one or two queue
// entries at a time, not one per re-arm.
//
// Observers (Every) sample a run without being part of it. An observer runs
// at the instants a self-rescheduling event would fire, between events, but
// it is not an event: it takes no sequence number, and Fired, Pending and
// PendingCensus never count it. Arming or stopping one therefore leaves
// every event's (at, seq) key, and the engine's fingerprint, as it was.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time = int64

// Common duration units, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Event lifecycle states.
const (
	stateFree     uint8 = iota // on the engine free list (or zero value)
	stateQueued                // in the pending queue
	stateCanceled              // in the heap, will not fire (lanes tombstone instead)
	stateFired                 // popped and executing/executed
)

// Event is a scheduled callback. The zero value is not usable; events are
// created by the Engine's Schedule/At/ScheduleCall methods. An Event may be
// cancelled before it fires.
//
// Handle lifetime: event structs are recycled through an engine-owned free
// list once they fire or are cancelled. A handle is therefore dead once its
// event fires or Cancel returns: the engine may hand the struct to the next
// schedule call at once. Drop (nil out) stored handles at that point, exactly
// as the callback-clears-its-own-timer pattern in internal/transport does.
// Calling Cancel on a stale handle cancels whatever event reuses the struct,
// so holding handles past their event's lifetime is a bug. Reschedule
// returns the handle to keep, which may be a new event's.
type Event struct {
	at  Time
	seq uint64 // tie-break: preserves scheduling order at equal times

	// fn(a1, a2) is the callback: pre-bound arguments spare hot paths a
	// closure allocation per scheduling. Schedule's func() travels in a1,
	// with callFunc as fn (boxing a func value does not allocate).
	fn     func(a1, a2 any)
	a1, a2 any

	eng   *Engine
	pos   uint32 // absolute ring position while queued in a lane
	lane  uint8  // lane index while queued in a lane, inHeap otherwise
	state uint8
	kind  Kind // self-profiling attribution (see profile.go)
}

// At returns the virtual time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents a queued event from firing and ends the handle's life:
// the engine may reuse the struct as soon as Cancel returns. Cancelling an
// event that already fired is a no-op until the engine reuses the struct.
func (e *Event) Cancel() {
	if e.state != stateQueued {
		return
	}
	if e.lane == inHeap {
		e.state = stateCanceled
		return
	}
	eng := e.eng
	l := &eng.lanes[e.lane]
	l.ring[e.pos&uint32(len(l.ring)-1)].ev = nil
	eng.recycle(e)
}

// Reschedule moves ev to delay nanoseconds from now, with delay treated as
// in Schedule, and returns the event's handle from then on. It acts exactly
// like ev.Cancel followed by ScheduleCallKind with ev's callback, arguments
// and kind: the event takes the next sequence number and fires where that
// pair would have put it. The difference is in the queue. When ev waits in
// a delay lane and the new time is no earlier than its current one, ev is
// re-keyed in place and returned: Pending and PendingCensus go on counting
// it once, as a live event, and no tombstone is left. Its ring slot keeps
// the old key; when that key comes due, the event moves unfired to the heap
// under its new key, and a later Cancel leaves its tombstone at the slot's
// key if the slot is still queued. Otherwise ev is cancelled, its handle is
// dead, and the returned handle is a new event's.
func (e *Engine) Reschedule(ev *Event, delay Time) *Event {
	t := e.after(delay)
	if ev.state == stateQueued && ev.lane != inHeap && t >= ev.at {
		ev.at, ev.seq = t, e.seq
		e.seq++
		return ev
	}
	fn, a1, a2, k := ev.fn, ev.a1, ev.a2, ev.kind
	ev.Cancel()
	return e.ScheduleCallKind(delay, k, fn, a1, a2)
}

// callFunc is the callback of events scheduled with a plain func().
func callFunc(fn, _ any) { fn.(func())() }

// numLanes is the number of delay lanes (at most 32, the width of
// Engine.busy). A large run uses 8 to 12 distinct delays at a time; the
// spare lanes absorb one-off delays until they drain and can be re-keyed.
const numLanes = 16

// smallQueue is the queue depth up to which new events go to the heap: a
// heap this shallow costs less per event than the lanes' bookkeeping, which
// only pays off on deep queues (an unloaded fabric forwarding one packet
// keeps one or two events pending; a loaded 8x8 run keeps a few thousand).
const smallQueue = 64

// inHeap is Event.lane for an event queued in the heap.
const inHeap = numLanes

// indexBits sizes the delay index at 2^indexBits slots, four per lane: at
// most a quarter of the slots are used, so a probe for a delay without a
// lane meets an empty slot after about 1.4 slots on average.
const (
	indexBits = 6
	indexSize = 1 << indexBits
)

// lane is a FIFO ring of events that were all scheduled with the same
// relative delay, and so are queued in (at, seq) order. It caches its
// head's (at, seq), so ordering the busy lanes reads the lanes instead of
// the rings.
type lane struct {
	ring  []slot // power-of-two capacity; position p is ring[p&(len-1)]
	head  uint32 // absolute position of the oldest slot
	n     uint32 // queued slots, tombstones included
	delay Time   // kept when the lane drains, until another delay re-keys it
	at    Time   // head's timestamp, valid while n > 0
	seq   uint64 // head's sequence number, valid while n > 0
}

// slot is one queued lane entry: the key, and the event or, once the event
// is cancelled, nil (a tombstone). Positions are absolute and wrap at 2^32,
// which every power-of-two ring size divides, so a position stays valid
// across grows.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

// Engine is the event loop. It is not safe for concurrent use; the entire
// simulation runs on one goroutine.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	fired   uint64
	pending int // queued events, cancelled ones and tombstones included

	// The pending queue: delay lanes, and the heap for shallow queues and
	// for delays without a lane.
	lanes  [numLanes]lane
	nLanes int    // lanes keyed so far
	busy   uint32 // bit i set while lane i is non-empty
	// order[:nBusy] lists the non-empty lanes by head key, smallest first.
	order [numLanes]uint8
	nBusy int
	// index maps each keyed lane's delay to the lane: slot s holds lane+1,
	// or 0 when empty. A delay sits at its home slot or, on a collision, at
	// the next free slot after it (linear probing).
	index [indexSize]uint8

	heap []*Event // fallback 4-ary min-heap ordered by (at, seq)

	// Free-list allocator: recycled events plus a block of never-used
	// structs carved out chunk-by-chunk to amortize allocation.
	free  []*Event
	chunk []Event

	// Invariant checking (EnableChecks): disabled by default so the hot
	// loop pays one predictable branch.
	checks     bool
	lastAt     Time
	lastSeq    uint64
	violations []string

	// Self-profiling (EnableProfile): nil by default so the hot loop pays
	// one predictable nil check.
	prof *Profile

	// Observers (Every): the armed ones in the order they come due. obsAt
	// caches the first one's instant, math.MaxInt64 with none armed, so the
	// run loop pays one compare per event for them.
	obs      []*Observer
	obsAt    Time
	observed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{obsAt: math.MaxInt64}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return e.pending }

// Seq returns the next scheduling sequence number. Together with Now, Fired
// and Pending it fingerprints the engine's position in a run: two engines
// driven by the same deterministic program agree on all four at every
// instant, which is what checkpoint verification checks.
func (e *Engine) Seq() uint64 { return e.seq }

// PendingCensus returns the number of queued events per profiling kind,
// plus the count of cancelled events awaiting removal (lane tombstones and
// lazily cancelled heap events) — a structural fingerprint of the event
// queue. An event moved by Reschedule counts once, as queued; whether the
// move also left a cancelled entry depends on where the event waited, as
// Reschedule documents. Scheduling, cancelling, rescheduling and where each
// event is filed are all deterministic, so two engines driven by the same
// program agree on the census at every instant.
func (e *Engine) PendingCensus() (byKind [NumKinds]int, cancelled int) {
	for i := 0; i < e.nLanes; i++ {
		l := &e.lanes[i]
		mask := uint32(len(l.ring) - 1)
		for k := uint32(0); k < l.n; k++ {
			if ev := l.ring[(l.head+k)&mask].ev; ev != nil {
				byKind[ev.kind]++
			} else {
				cancelled++
			}
		}
	}
	for _, ev := range e.heap {
		if ev.state == stateCanceled {
			cancelled++
		} else {
			byKind[ev.kind]++
		}
	}
	return byKind, cancelled
}

// FreeEvents returns the current size of the event free list (allocation
// instrumentation for tests and benchmarks).
func (e *Engine) FreeEvents() int { return len(e.free) }

// EnableChecks turns on per-event invariant checking: virtual time must
// never move backwards, events at the same instant must fire in scheduling
// (sequence) order, and no cancelled or recycled event may fire. Violations
// are recorded, not panicked, so a harness can report them after the run.
func (e *Engine) EnableChecks() {
	e.checks = true
	e.lastAt = -1
}

// Violations returns the invariant violations recorded since EnableChecks.
func (e *Engine) Violations() []string { return e.violations }

func (e *Engine) alloc() *Event {
	if k := len(e.free); k > 0 {
		ev := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]Event, 256)
	}
	ev := &e.chunk[0]
	ev.eng = e
	e.chunk = e.chunk[1:]
	return ev
}

// recycle returns an event to the free list once nothing in the queue points
// to it: it fired, was popped cancelled from the heap, or left a tombstone.
// Releasing an event the queue still holds would let a reuse corrupt the
// queue.
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.a1, ev.a2 = nil, nil, nil
	ev.state = stateFree
	e.free = append(e.free, ev)
}

// Schedule runs fn after delay nanoseconds of virtual time. A negative delay
// is treated as zero, and a time past the end of the clock saturates at
// math.MaxInt64. It returns a handle that can cancel the event.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.AtKind(e.after(delay), KindOther, fn)
}

// ScheduleKind is Schedule with a profiling kind tag.
func (e *Engine) ScheduleKind(delay Time, k Kind, fn func()) *Event {
	return e.AtKind(e.after(delay), k, fn)
}

// At runs fn at absolute virtual time t. If t is in the past, the event fires
// at the current time (but never before events already due).
func (e *Engine) At(t Time, fn func()) *Event {
	return e.AtKind(t, KindOther, fn)
}

// AtKind is At with a profiling kind tag.
func (e *Engine) AtKind(t Time, k Kind, fn func()) *Event {
	ev := e.alloc()
	ev.fn, ev.a1 = callFunc, fn
	e.enqueue(ev, t, k)
	return ev
}

// ScheduleCall runs fn(a1, a2) after delay nanoseconds of virtual time, with
// delay treated as in Schedule. It is the allocation-free flavor of
// Schedule: fn is typically a package-level function and the receiver
// travels in a1/a2 (boxing a pointer into an `any` does not allocate), so a
// warm engine schedules without touching the heap.
func (e *Engine) ScheduleCall(delay Time, fn func(a1, a2 any), a1, a2 any) *Event {
	return e.ScheduleCallKind(delay, KindOther, fn, a1, a2)
}

// ScheduleCallKind is ScheduleCall with a profiling kind tag.
func (e *Engine) ScheduleCallKind(delay Time, k Kind, fn func(a1, a2 any), a1, a2 any) *Event {
	ev := e.alloc()
	ev.fn, ev.a1, ev.a2 = fn, a1, a2
	e.enqueue(ev, e.after(delay), k)
	return ev
}

// after returns the time delay nanoseconds from now, saturated at
// math.MaxInt64 instead of wrapping into the past. A negative delay gives a
// time in the past, which enqueue clamps to now.
func (e *Engine) after(delay Time) Time {
	if delay > math.MaxInt64-e.now {
		return math.MaxInt64
	}
	return e.now + delay
}

// enqueue stamps ev with its time, sequence number and kind and queues it.
// An unknown kind is filed as KindOther here, once, so the census and the
// profiler can index by kind unchecked.
func (e *Engine) enqueue(ev *Event, t Time, k Kind) {
	if t < e.now {
		t = e.now
	}
	if int(k) >= NumKinds {
		k = KindOther
	}
	ev.at = t
	ev.seq = e.seq
	ev.state = stateQueued
	ev.kind = k
	e.seq++
	e.pending++
	if e.pending > smallQueue {
		d := t - e.now
		i := e.laneOf(d)
		if i < 0 {
			i = e.keyLane(d)
		}
		if i >= 0 {
			e.lanePush(i, ev)
			return
		}
	}
	e.heapPush(ev)
}

// home returns delay d's home slot in the index (Fibonacci hashing).
func home(d Time) uint32 {
	return uint32(uint64(d) * 0x9e3779b97f4a7c15 >> (64 - indexBits))
}

// laneOf returns the lane keyed to delay d, or -1 if d has none.
func (e *Engine) laneOf(d Time) int {
	for s := home(d); ; s = (s + 1) & (indexSize - 1) {
		k := e.index[s]
		if k == 0 {
			return -1
		}
		if e.lanes[k-1].delay == d {
			return int(k - 1)
		}
	}
}

// keyLane keys a lane to delay d, which has none, and returns it: a
// never-used lane first, then the lowest-numbered drained one, whose old
// delay leaves the index. It returns -1, for the heap, when every lane is
// busy.
func (e *Engine) keyLane(d Time) int {
	var i int
	if e.nLanes < numLanes {
		i = e.nLanes
		e.nLanes++
	} else if drained := ^e.busy & (1<<numLanes - 1); drained != 0 {
		i = bits.TrailingZeros32(drained)
		e.unindex(i)
	} else {
		return -1
	}
	e.lanes[i].delay = d
	s := home(d)
	for e.index[s] != 0 {
		s = (s + 1) & (indexSize - 1)
	}
	e.index[s] = uint8(i + 1)
	return i
}

// unindex removes lane i's delay from the index. Each later entry of the
// probe run whose home slot does not lie between the hole and the entry
// moves back into the hole, so every delay stays reachable from its home
// slot with no deleted markers left behind.
func (e *Engine) unindex(i int) {
	const mask = indexSize - 1
	s := home(e.lanes[i].delay)
	for e.index[s] != uint8(i+1) {
		s = (s + 1) & mask
	}
	for j := (s + 1) & mask; e.index[j] != 0; j = (j + 1) & mask {
		if h := home(e.lanes[e.index[j]-1].delay); (j-h)&mask >= (j-s)&mask {
			e.index[s] = e.index[j]
			s = j
		}
	}
	e.index[s] = 0
}

// lanePush appends ev to lane i. Its key is at least every queued key of the
// lane (same delay, later or equal now, larger seq), so the ring stays
// sorted. A lane that was empty joins order behind every busy lane whose
// head is earlier.
func (e *Engine) lanePush(i int, ev *Event) {
	l := &e.lanes[i]
	if int(l.n) == len(l.ring) {
		l.grow()
	}
	p := l.head + l.n
	l.ring[p&uint32(len(l.ring)-1)] = slot{ev.at, ev.seq, ev}
	ev.lane, ev.pos = uint8(i), p
	l.n++
	if l.n == 1 {
		e.busy |= 1 << i
		l.at, l.seq = ev.at, ev.seq
		j := e.nBusy
		for ; j > 0; j-- {
			o := &e.lanes[e.order[j-1]]
			if !before(ev.at, ev.seq, o.at, o.seq) {
				break
			}
			e.order[j] = e.order[j-1]
		}
		e.order[j] = uint8(i)
		e.nBusy++
	}
}

// grow doubles the ring, keeping every slot at its absolute position so the
// positions stored in queued events stay valid.
func (l *lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]slot, size)
	mask, newMask := uint32(len(l.ring)-1), uint32(size-1)
	for p := l.head; p != l.head+l.n; p++ {
		ring[p&newMask] = l.ring[p&mask]
	}
	l.ring = ring
}

// peek returns the key time of the next queue entry due, the smallest
// (at, seq) among the lane heads and the heap root, and whether it is the
// first lane's head rather than the heap root. The queue must not be empty.
func (e *Engine) peek() (Time, bool) {
	if len(e.heap) > 0 {
		h := e.heap[0]
		if e.nBusy == 0 {
			return h.at, false
		}
		if l := &e.lanes[e.order[0]]; before(h.at, h.seq, l.at, l.seq) {
			return h.at, false
		}
	}
	return e.lanes[e.order[0]].at, true
}

// laneTake removes the head of the first lane in order, the smallest lane
// head, and returns its event, nil for a tombstone. An event that
// Reschedule re-keyed since it was filed is not due yet: laneTake files it
// in the heap under its new key, counts it as pending again, and returns
// nil too. A drained lane leaves order. Otherwise its new head is later,
// and the lane moves back past every lane whose head is earlier than that.
func (e *Engine) laneTake() *Event {
	i := e.order[0]
	l := &e.lanes[i]
	mask := uint32(len(l.ring) - 1)
	s := &l.ring[l.head&mask]
	ev := s.ev
	if ev != nil && ev.seq != s.seq {
		e.heapPush(ev)
		e.pending++
		ev = nil
	}
	l.head++
	l.n--
	n := e.nBusy
	if l.n == 0 {
		e.busy &^= 1 << i
		copy(e.order[:n-1], e.order[1:n])
		e.nBusy--
		return ev
	}
	s = &l.ring[l.head&mask]
	at, seq := s.at, s.seq
	l.at, l.seq = at, seq
	j := 0
	for ; j+1 < n; j++ {
		o := &e.lanes[e.order[j+1]]
		if before(at, seq, o.at, o.seq) {
			break
		}
		e.order[j] = e.order[j+1]
	}
	e.order[j] = i
	return ev
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order, and the observer instants due
// between them, until the engine is stopped or the next event and the next
// instant are both later than until. Events and instants exactly at until
// run, and instants due by until run even once the queue is empty. It
// returns the number of events fired by this call.
func (e *Engine) Run(until Time) uint64 {
	n := e.run(until, false)
	if e.now < until && !e.stopped {
		// Advance the clock to the horizon even if no event lands on it, so
		// repeated Run calls observe monotonic time.
		e.now = until
	}
	return n
}

// RunAll executes events, and the observer instants due between them, until
// the queue drains or the engine is stopped.
func (e *Engine) RunAll() uint64 { return e.run(math.MaxInt64, true) }

// run is the event loop shared by Run and RunAll. With drain set it returns
// when the queue drains; otherwise it runs the observer instants due by until
// over an empty queue too.
func (e *Engine) run(until Time, drain bool) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		if e.pending == 0 {
			if drain || len(e.obs) == 0 || e.obsAt > until {
				break
			}
			e.observe()
			continue
		}
		at, inLane := e.peek()
		if at >= e.obsAt && e.observerFirst(at, inLane) {
			if e.obsAt > until {
				break
			}
			e.observe()
			continue
		}
		if at > until {
			break
		}
		e.pending--
		var ev *Event
		if !inLane {
			ev = e.heapPop()
		} else if ev = e.laneTake(); ev == nil {
			continue // a tombstone, or an event re-filed in the heap
		}
		e.fire(ev)
	}
	return e.fired - start
}

// fire executes one popped event (skipping cancelled ones) and recycles it.
func (e *Engine) fire(ev *Event) {
	if ev.state == stateCanceled {
		e.recycle(ev)
		return
	}
	if e.checks {
		e.checkFire(ev)
	}
	e.now = ev.at
	e.fired++
	ev.state = stateFired
	if e.prof != nil {
		e.profiledFire(ev)
		return
	}
	ev.fn(ev.a1, ev.a2)
	e.recycle(ev)
}

func (e *Engine) checkFire(ev *Event) {
	if ev.at < e.now {
		e.violate("time moved backwards: event at %d fires at now=%d", ev.at, e.now)
	}
	if ev.at == e.lastAt && ev.seq <= e.lastSeq {
		e.violate("same-instant ordering broken: seq %d fired after seq %d at t=%d",
			ev.seq, e.lastSeq, ev.at)
	}
	if ev.state != stateQueued {
		e.violate("event in state %d fired (cancelled or recycled event executing)", ev.state)
	}
	e.lastAt, e.lastSeq = ev.at, ev.seq
}

// before reports whether key (at1, seq1) orders before (at2, seq2): events
// fire by timestamp, and by scheduling sequence at equal timestamps.
func before(at1 Time, seq1 uint64, at2 Time, seq2 uint64) bool {
	return at1 < at2 || (at1 == at2 && seq1 < seq2)
}

// eventLess orders the heap by (timestamp, scheduling sequence).
func eventLess(a, b *Event) bool { return before(a.at, a.seq, b.at, b.seq) }

// heapPush and heapPop maintain an implicit 4-ary min-heap in e.heap. A
// 4-ary layout halves the tree depth of the binary heap and keeps each
// node's children in one cache line of pointers, and inlining the
// comparisons avoids container/heap's interface dispatch on every swap.
func (e *Engine) heapPush(ev *Event) {
	ev.lane = inHeap
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the root.
func (e *Engine) heapPop() *Event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.heap = h
	// Sift the relocated tail element down to its place.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return root
}

func (e *Engine) violate(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}
