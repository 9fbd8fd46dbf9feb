package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// queueModel records everything scheduled on an engine, independently of
// how the engine splits its queue between delay lanes and the heap: each
// event's (at, seq, kind), whether it was cancelled, and the key up to which
// the run loop has removed events. From that it predicts the fire order,
// Pending and PendingCensus. Only Reschedule depends on the split, and the
// model asks the engine where a moved event waits.
type queueModel struct {
	recs   []*modelEvent
	fired  []uint64 // seqs in fire order
	curAt  Time     // every event with key <= (curAt, curSeq) has left the queue
	curSeq uint64
	stopAt *modelEvent // its callback stops the engine; never cancelled
}

type modelEvent struct {
	at        Time   // the key the event fires at; once cancelled,
	seq       uint64 // the key its queue entry leaves at
	kind      Kind
	cancelled bool
	ev        *Event // valid while the event is queued
	// slotAt and slotSeq key the lane slot an in-place move left the event
	// in; until the run loop passes that key, a cancel leaves its tombstone
	// there.
	slotAt  Time
	slotSeq uint64
}

func (m *queueModel) add(ev *Event, k Kind) *modelEvent {
	if int(k) >= NumKinds {
		k = KindOther
	}
	r := &modelEvent{at: ev.at, seq: ev.seq, kind: k, ev: ev, slotAt: ev.at, slotSeq: ev.seq}
	m.recs = append(m.recs, r)
	return r
}

// queued reports whether r is still in the engine's queue.
func (m *queueModel) queued(r *modelEvent) bool {
	return m.due(r.at, r.seq)
}

// due reports whether the run loop has yet to reach key (at, seq).
func (m *queueModel) due(at Time, seq uint64) bool {
	return before(m.curAt, m.curSeq, at, seq)
}

// cancel cancels r's event.
func (m *queueModel) cancel(r *modelEvent) {
	r.ev.Cancel()
	m.markCancelled(r)
}

// markCancelled records r as cancelled. Its queue entry leaves at its lane
// slot's key if an in-place move left that slot queued, and at its own key
// otherwise.
func (m *queueModel) markCancelled(r *modelEvent) {
	r.cancelled = true
	if m.due(r.slotAt, r.slotSeq) {
		r.at, r.seq = r.slotAt, r.slotSeq
	}
}

// move reschedules r's event to delay d from now and reports whether the
// move was in place: the event waited in a lane and moves no earlier, so it
// keeps its queue entry. Otherwise the move is a cancel and a schedule, and
// the old entry stays behind, cancelled.
func (m *queueModel) move(e *Engine, r *modelEvent, d Time) bool {
	inPlace := r.ev.lane != inHeap && e.Now()+d >= r.at
	if !inPlace {
		old := &modelEvent{at: r.at, seq: r.seq, kind: r.kind, slotAt: r.slotAt, slotSeq: r.slotSeq}
		m.markCancelled(old)
		m.recs = append(m.recs, old)
	}
	ev := e.Reschedule(r.ev, d)
	r.ev, r.at, r.seq = ev, ev.at, ev.seq
	if !inPlace {
		r.slotAt, r.slotSeq = ev.at, ev.seq
	}
	return inPlace
}

// census is the model's Pending and PendingCensus.
func (m *queueModel) census() (pending int, byKind [NumKinds]int, cancelled int) {
	for _, r := range m.recs {
		if !m.queued(r) {
			continue
		}
		pending++
		if r.cancelled {
			cancelled++
		} else {
			byKind[r.kind]++
		}
	}
	return pending, byKind, cancelled
}

// TestLaneFireOrderMatchesSort drives the engine with more distinct delays
// than it has lanes, so some lanes drain and are re-keyed and the rest of
// the delays spill into the fallback heap, mixed with At in the past, zero
// delays, cancellation, cancel-then-reschedule, Stop mid-run and Run
// horizons. The fire sequence must equal every non-cancelled event sorted by
// (at, seq), and Pending and PendingCensus must match the model at every
// pause.
func TestLaneFireOrderMatchesSort(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	rng := NewRNG(1)
	m := &queueModel{curAt: -1}
	sawFallback, sawLanes := false, false
	inPlace, anew := 0, 0 // moves in place, and as a cancel and a schedule

	// 40 distinct delays, well over numLanes.
	delays := make([]Time, 40)
	for i := range delays {
		delays[i] = Time(1+i) * 37
	}

	var schedule func(d Time, k Kind, abs bool)
	fire := func(r *modelEvent) {
		m.curAt, m.curSeq = r.at, r.seq
		m.fired = append(m.fired, r.seq)
		if r == m.stopAt {
			e.Stop()
		}
		// Callbacks schedule more work: a chained hop, sometimes an event
		// in the past or at zero delay, and sometimes a cancellation.
		if len(m.recs) >= 6000 {
			return
		}
		schedule(delays[rng.Intn(len(delays))], Kind(rng.Intn(NumKinds)), false)
		switch rng.Intn(8) {
		case 0:
			schedule(e.Now()-5, KindTimer, true)
		case 1:
			schedule(0, KindProbe, false)
		case 2:
			cancelRandom(m, rng)
		case 3:
			// Move an event from -100 to +300 ns off its time, as a
			// callback re-arming a timer does.
			if r := randomLive(m, rng); r != nil {
				if m.move(e, r, r.at+Time(rng.Intn(400)-100)-e.Now()) {
					inPlace++
				} else {
					anew++
				}
			}
		}
	}
	schedule = func(d Time, k Kind, abs bool) {
		var r *modelEvent
		fn := func() { fire(r) }
		if abs {
			r = m.add(e.AtKind(d, k, fn), k)
		} else {
			r = m.add(e.ScheduleKind(d, k, fn), k)
		}
	}
	check := func(when string) {
		t.Helper()
		pending, byKind, cancelled := m.census()
		if got := e.Pending(); got != pending {
			t.Fatalf("%s: Pending() = %d, model %d", when, got, pending)
		}
		gotKind, gotCancelled := e.PendingCensus()
		if gotKind != byKind || gotCancelled != cancelled {
			t.Fatalf("%s: PendingCensus() = %v/%d, model %v/%d", when, gotKind, gotCancelled, byKind, cancelled)
		}
		// Past smallQueue events go to the heap only when their delay has no
		// lane.
		sawFallback = sawFallback || len(e.heap) > smallQueue
		sawLanes = sawLanes || e.busy != 0
		if err := checkLanes(e); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	for _, d := range delays {
		for j := 0; j < 5; j++ {
			schedule(d, Kind(j%NumKinds), false)
		}
	}
	schedule(0, KindOther, false)
	schedule(200, Kind(200), false) // out-of-range kind: filed as other
	check("after seeding")
	laneDelays := func() (ds [numLanes]Time) {
		for i := range e.lanes {
			ds[i] = e.lanes[i].delay
		}
		return ds
	}
	firstKeys := laneDelays()

	for round := 0; round < 40; round++ {
		for i := 0; i < 3; i++ {
			cancelRandom(m, rng)
		}
		// Cancel then reschedule at the same instant.
		if r := randomLive(m, rng); r != nil {
			at := r.at
			m.cancel(r)
			schedule(at, r.kind, true)
		}
		if round%5 == 4 {
			// Stop from inside the callback of a live event.
			stop := randomLive(m, rng)
			if stop == nil {
				t.Fatalf("round %d: no live event to stop at (%d scheduled, %d fired, pending %d)", round, len(m.recs), len(m.fired), e.Pending())
			}
			m.stopAt = stop
			e.RunAll()
			m.stopAt = nil
			if m.curAt != stop.at || m.curSeq != stop.seq {
				t.Fatal("Stop: the run continued past the stopping event")
			}
			check("after Stop")
			continue
		}
		until := e.Now() + Time(rng.Intn(300))
		e.Run(until)
		m.curAt, m.curSeq = until, math.MaxUint64
		check("after Run")
	}
	e.RunAll()
	check("after RunAll")

	if !sawLanes || !sawFallback {
		t.Fatalf("lanes used: %v, heap fallback used: %v; want both", sawLanes, sawFallback)
	}
	if inPlace == 0 || anew == 0 {
		t.Fatalf("%d moves in place, %d as a cancel and a schedule; want both", inPlace, anew)
	}
	if laneDelays() == firstKeys {
		t.Fatal("no lane was re-keyed")
	}
	var want []*modelEvent
	for _, r := range m.recs {
		if !r.cancelled {
			want = append(want, r)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(m.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(m.fired), len(want))
	}
	for i, r := range want {
		if m.fired[i] != r.seq {
			t.Fatalf("fire %d: seq %d, want seq %d (at %d)", i, m.fired[i], r.seq, r.at)
		}
	}
	if got := e.Fired(); got != uint64(len(want)) {
		t.Fatalf("Fired() = %d, want %d", got, len(want))
	}
	if vs := e.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs[0])
	}
}

// checkLanes checks the engine's lane bookkeeping against the lanes: busy
// and order name exactly the non-empty lanes, order lists them by strictly
// increasing head key, each lane caches its ring head's key, and the index
// holds one entry per keyed lane, which finds the lane from its delay. Every
// queued slot's event points back at the slot, and an event whose key
// differs from its slot's, one Reschedule re-keyed in place, is keyed
// strictly later than the slot.
func checkLanes(e *Engine) error {
	var busy uint32
	for i := 0; i < e.nLanes; i++ {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		busy |= 1 << i
		mask := uint32(len(l.ring) - 1)
		if s := l.ring[l.head&mask]; s.at != l.at || s.seq != l.seq {
			return fmt.Errorf("lane %d caches head (%d, %d), its ring head is (%d, %d)", i, l.at, l.seq, s.at, s.seq)
		}
		for p := l.head; p != l.head+l.n; p++ {
			s := l.ring[p&mask]
			ev := s.ev
			if ev == nil {
				continue
			}
			if int(ev.lane) != i || ev.pos != p {
				return fmt.Errorf("lane %d slot %d holds an event that points at lane %d slot %d", i, p, ev.lane, ev.pos)
			}
			if (ev.at != s.at || ev.seq != s.seq) && !before(s.at, s.seq, ev.at, ev.seq) {
				return fmt.Errorf("lane %d slot %d keyed (%d, %d) holds an event re-keyed to (%d, %d), not later",
					i, p, s.at, s.seq, ev.at, ev.seq)
			}
		}
	}
	if e.busy != busy {
		return fmt.Errorf("busy = %#x, non-empty lanes %#x", e.busy, busy)
	}
	order := e.order[:e.nBusy]
	var listed uint32
	for j, i := range order {
		listed |= 1 << i
		if j == 0 {
			continue
		}
		if p, l := &e.lanes[order[j-1]], &e.lanes[i]; !before(p.at, p.seq, l.at, l.seq) {
			return fmt.Errorf("order %v: lane %d's head (%d, %d) is not after lane %d's (%d, %d)",
				order, i, l.at, l.seq, order[j-1], p.at, p.seq)
		}
	}
	if listed != busy || len(order) != bits.OnesCount32(busy) {
		return fmt.Errorf("order %v, non-empty lanes %#x", order, busy)
	}
	entries := 0
	for _, k := range e.index {
		if k != 0 {
			entries++
		}
	}
	if entries != e.nLanes {
		return fmt.Errorf("index holds %d entries for %d keyed lanes", entries, e.nLanes)
	}
	for i := 0; i < e.nLanes; i++ {
		if d := e.lanes[i].delay; e.laneOf(d) != i {
			return fmt.Errorf("index finds lane %d for lane %d's delay %d", e.laneOf(d), i, d)
		}
	}
	return nil
}

// TestLaneIndexProbeRuns keys every lane, six of them to delays whose home
// is the index's last slot, so their probe run wraps to the front of the
// index. Those six lanes then drain one at a time, by delay, and each is
// re-keyed to a fresh delay at once. The six were keyed in an order that
// makes the first removals take the run's first, last and middle entries.
// Every keyed delay must stay reachable, a re-keyed lane's old delay must
// lose it, and events must keep firing in (at, seq) order.
func TestLaneIndexProbeRuns(t *testing.T) {
	var wrapped, fresh, other []Time
	for d := Time(1); len(wrapped) < 6; d++ {
		if home(d) == indexSize-1 {
			wrapped = append(wrapped, d)
		}
	}
	for d := Time(1e6); len(other) < numLanes-6 || len(fresh) < 6; d++ {
		if h := home(d); h < 8 || h == indexSize-1 {
			continue
		}
		if len(other) < numLanes-6 {
			other = append(other, d)
		} else {
			fresh = append(fresh, d)
		}
	}
	e := NewEngine()
	e.EnableChecks()
	fired := 0
	count := func() { fired++ }
	for i := 0; i < smallQueue; i++ {
		e.Schedule(1<<40, count) // keeps every later event past smallQueue
	}
	// Run positions 0 to 5 hold wrapped[0, 3, 2, 5, 4, 1]: the lanes drain
	// from the run's first entry, then its last, then its middle.
	for _, k := range []int{0, 3, 2, 5, 4, 1} {
		e.Schedule(wrapped[k], count)
	}
	for _, d := range other {
		e.Schedule(d, count)
	}
	if err := checkLanes(e); err != nil {
		t.Fatal(err)
	}
	if e.busy != 1<<numLanes-1 {
		t.Fatalf("busy %#x; want every lane busy", e.busy)
	}
	for k, d := range wrapped {
		i := e.laneOf(d)
		e.Run(d)
		if e.lanes[i].n != 0 {
			t.Fatalf("lane %d of delay %d did not drain at t=%d", i, d, d)
		}
		e.Schedule(fresh[k], count)
		if got := e.laneOf(fresh[k]); got != i {
			t.Fatalf("delay %d keyed lane %d, want the drained lane %d", fresh[k], got, i)
		}
		if got := e.laneOf(d); got >= 0 {
			t.Fatalf("delay %d still maps to lane %d after its lane was re-keyed", d, got)
		}
		if err := checkLanes(e); err != nil {
			t.Fatalf("after re-keying delay %d's lane: %v", d, err)
		}
	}
	e.RunAll()
	if want := smallQueue + numLanes + len(fresh); fired != want {
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	if vs := e.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}

// randomLive picks a queued, non-cancelled event, or nil if there is none.
func randomLive(m *queueModel, rng *RNG) *modelEvent {
	var live []*modelEvent
	for _, r := range m.recs {
		if !r.cancelled && r != m.stopAt && m.queued(r) {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[rng.Intn(len(live))]
}

func cancelRandom(m *queueModel, rng *RNG) {
	if r := randomLive(m, rng); r != nil {
		m.cancel(r)
	}
}

// TestUnknownKindFiledAsOther is the regression test for an event tagged
// with a kind past NumKinds: the census (taken by every checkpoint) and the
// profiler both count it as KindOther instead of indexing out of range.
func TestUnknownKindFiledAsOther(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleKind(5, Kind(200), func() { ran++ })
	e.ScheduleCallKind(5, Kind(NumKinds), func(a1, a2 any) { ran++ }, nil, nil)
	byKind, cancelled := e.PendingCensus()
	if byKind[KindOther] != 2 || cancelled != 0 {
		t.Fatalf("PendingCensus() = %v/%d, want 2 events of kind other", byKind, cancelled)
	}
	p := e.EnableProfile(1)
	e.RunAll()
	if ran != 2 {
		t.Fatalf("%d of 2 events ran", ran)
	}
	if got := p.Count(KindOther); got != 2 || p.Total() != 2 {
		t.Fatalf("Count(KindOther) = %d of Total() = %d, want 2 of 2", got, p.Total())
	}
}

// TestLanePositionsWrap starts every lane's absolute positions just short of
// 2^32, so pushes, two ring grows and cancellations straddle the point where
// positions wrap: each position must keep naming its event's slot.
func TestLanePositionsWrap(t *testing.T) {
	e := NewEngine()
	e.EnableChecks()
	for i := range e.lanes {
		e.lanes[i].head = math.MaxUint32 - 5
	}
	fill(e, smallQueue)
	var fired []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(10, func() { fired = append(fired, i) }))
	}
	if l := &e.lanes[evs[0].lane]; evs[0].lane == inHeap || len(l.ring) != 32 {
		t.Fatalf("events in lane %d, ring of %d; want a lane grown to 32", evs[0].lane, len(l.ring))
	}
	cancelled := map[int]bool{0: true, 5: true, 6: true, 13: true, 19: true}
	for i := range cancelled {
		evs[i].Cancel()
	}
	e.Run(10)
	var want []int
	for i := range evs {
		if !cancelled[i] {
			want = append(want, i)
		}
	}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if vs := e.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
}
