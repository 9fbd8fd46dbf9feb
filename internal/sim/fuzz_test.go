package sim

import (
	"fmt"
	"slices"
	"testing"
)

// Fuzz ops: each data byte is one operation. The low two bits select the
// op, the high six bits are its argument.
const (
	opSchedule   = 0 // schedule at now+arg
	opCancel     = 1 // cancel live[arg%len(live)]
	opReschedule = 2 // cancel live[arg%len(live)], reschedule at its time
	opRun        = 3 // run to now+arg
)

func op(code, arg int) byte { return byte(arg<<2 | code) }

// A move is a Reschedule op, three bytes of the moves stream: after skip
// more data ops, move live[target%len(live)] by int8(offset) ns from its
// current time. A negative offset moves it earlier; a time before now means
// now.
func move(skip, target, offset int) []byte {
	return []byte{byte(skip), byte(target), byte(int8(offset))}
}

// An observer op is two bytes of the observers stream: after skip more data
// ops, arm an observer with Every(interval) (interval 1 to 128), or stop
// armed[arg%len(armed)].
func arm(skip, interval int) []byte { return []byte{byte(skip), byte((interval - 1) << 1)} }
func stop(skip, arg int) []byte     { return []byte{byte(skip), byte(arg<<1 | 1)} }

// FuzzEventOps drives the engine through an arbitrary stream of schedule /
// cancel / cancel-then-reschedule / partial-run operations, merged with a
// stream of Reschedule moves and a stream of observer arms and stops. It
// asserts that the invariant checker stays clean and that events fire in
// the order of a model in which a move is a cancel followed by a schedule:
// each event fires once, at its model time, in (time, seq) order, and the
// engine's Seq matches the model's after every op. Pending and
// PendingCensus must match the model too, in which a cancelled event stays
// pending until a Run passes its queue entry's time, and a move follows the
// rule Reschedule documents: an event in a lane that moves no earlier keeps
// its entry, at its lane slot's time until a Run passes that, and leaves no
// cancelled entry. Observers are not in the model: armed or not, it holds.
//
// A twin engine runs the same ops with each observer replaced by the
// self-rescheduling KindSample event chain observers replaced, stopped by
// cancelling its pending event. Event callbacks and observer instants must
// interleave on both engines exactly alike.
func FuzzEventOps(f *testing.F) {
	var none []byte // no moves, or no observers
	f.Add([]byte{0x00, 0x14, 0x41, 0x02, 0x83, 0xc4, 0x10, 0xff}, none, none)
	f.Add([]byte{0x01, 0x01, 0x01}, none, none)                         // cancels with nothing live
	f.Add([]byte{0x00, 0x00, 0x02, 0x02, 0x06, 0x03}, none, none)       // same-instant churn
	f.Add([]byte{0xfc, 0x00, 0x04, 0x08, 0x07, 0x0b, 0x0f}, none, none) // run interleaved with ops
	// More distinct delays than the engine has lanes, on a queue deeper than
	// smallQueue: 40 delays three times over fill every lane and spill the
	// rest into the fallback heap, then cancels, a cancel-then-reschedule and
	// partial runs drain lanes, and 43 new delays re-key them while the heap
	// still holds events.
	var spill []byte
	for i := 0; i < 120; i++ {
		spill = append(spill, byte(i%40)<<2)
	}
	spill = append(spill, 0x01|7<<2, 0x01|30<<2, 0x02|12<<2, 0x03|9<<2)
	for d := 63; d > 20; d-- {
		spill = append(spill, byte(d)<<2, 0x03|2<<2)
	}
	f.Add(spill, none, none)
	// A deep backlog on one delay, then schedule/run rounds across 32 more
	// delays: lanes drain and are re-keyed one at a time.
	var rekey []byte
	for i := 0; i < 80; i++ {
		rekey = append(rekey, 63<<2)
	}
	for d := 0; d < 32; d++ {
		rekey = append(rekey, byte(62-d)<<2, byte(d)<<2, 0x03|byte(d)<<2)
	}
	f.Add(rekey, none, none)
	// deep fills the heap with smallQueue events due at 63 and cancels them
	// all (they stay pending), so the events scheduled next go to lanes and
	// sit at the front of the live list, where cancel arguments reach them.
	deep := func(ops ...byte) []byte {
		var b []byte
		for i := 0; i < smallQueue; i++ {
			b = append(b, op(opSchedule, 63))
		}
		for i := 0; i < smallQueue; i++ {
			b = append(b, op(opCancel, 0))
		}
		return append(b, ops...)
	}
	// One lane of 20 events: cancel its head, then one in the middle, then
	// cancel the new head and reschedule it at its time (same delay, so the
	// same lane), and run partway.
	var lane []byte
	for i := 0; i < 20; i++ {
		lane = append(lane, op(opSchedule, 1))
	}
	lane = append(lane, op(opCancel, 0), op(opCancel, 9), op(opReschedule, 0), op(opRun, 0), op(opRun, 1))
	f.Add(deep(lane...), none, none)
	// A lane ring that wraps and then grows: 4 events at t=2, 4 at t=3 and
	// a run pop the first 4, so 4 more at t=4 fill the 8-slot ring past its
	// end. One of those is cancelled before the ring grows to 16, then the
	// ring grows, and events on both sides of the old wrap point (and the
	// head) are cancelled or rescheduled after it.
	var wrap []byte
	for _, ops := range [][]byte{
		{op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2), op(opRun, 1)},
		{op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2), op(opRun, 1)},
		{op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2), op(opSchedule, 2)},
		{op(opCancel, 5), op(opSchedule, 2), op(opSchedule, 2), op(opCancel, 5), op(opCancel, 2)},
		{op(opCancel, 0), op(opReschedule, 4), op(opRun, 1), op(opRun, 1), op(opRun, 63)},
	} {
		wrap = append(wrap, ops...)
	}
	f.Add(deep(wrap...), none, none)
	// Five busy lanes with interleaved heads: delays 20, 30, 31, 32 and 50
	// scheduled at t=0, then a second delay-20 event at t=15. Taking the
	// head at 20 leaves that lane's new head at 35, which moves back three
	// places, between the heads at 32 and 50.
	f.Add(deep(op(opSchedule, 20), op(opSchedule, 30), op(opSchedule, 31), op(opSchedule, 32),
		op(opSchedule, 50), op(opRun, 15), op(opSchedule, 20), op(opRun, 5), op(opRun, 63)), none, none)
	// allLanes keys every lane, to delay 1 and delays 40 to 54; at t=1 the
	// delay-1 lane drains.
	allLanes := func(ops ...byte) []byte {
		b := []byte{op(opSchedule, 1)}
		for d := 40; d <= 54; d++ {
			b = append(b, op(opSchedule, d))
		}
		return deep(append(b, ops...)...)
	}
	// A delay-2 event re-keys the drained lane, and its head at 3 goes ahead
	// of every busy lane's. A delay-1 event then finds no lane and, with
	// every lane busy, goes to the heap.
	f.Add(allLanes(op(opRun, 1), op(opSchedule, 2), op(opSchedule, 1), op(opRun, 63)), none, none)
	// A 17th delay, 60, arrives while every lane is busy and goes to the
	// heap. Its next event, after the delay-1 lane drains, claims that lane,
	// and delay 1, which no longer maps to it, goes to the heap.
	f.Add(allLanes(op(opSchedule, 60), op(opRun, 1), op(opSchedule, 60), op(opSchedule, 1),
		op(opRun, 63), op(opRun, 63)), none, none)
	// Moves on a shallow queue, all in the heap: later, to the same time,
	// earlier, and, after a run, to before now.
	f.Add([]byte{op(opSchedule, 10), op(opSchedule, 20), op(opSchedule, 30), op(opSchedule, 10),
		op(opRun, 5), op(opRun, 10), op(opRun, 63)},
		slices.Concat(move(4, 0, 5), move(0, 1, 0), move(0, 2, -25), move(1, 2, -10)), none)
	// Moves on one lane of 20 events at t=10, past smallQueue. Events 0, 3
	// and 7 move in place (later, to the same time, and event 7 twice);
	// event 5 moves earlier, out of the lane; event 9 moves later in place
	// and is then cancelled, leaving its tombstone at its slot's time. The
	// run to 10 sends the re-keyed events to the heap, where the last two
	// moves find events 0 and 7 and move them later and earlier.
	var rekeyed []byte
	for i := 0; i < 20; i++ {
		rekeyed = append(rekeyed, op(opSchedule, 10))
	}
	rekeyed = append(rekeyed, op(opCancel, 9), op(opRun, 8), op(opRun, 2), op(opRun, 63), op(opRun, 63))
	f.Add(deep(rekeyed...), slices.Concat(move(2*smallQueue+20, 0, 7), move(0, 3, 0), move(0, 5, -4),
		move(0, 7, 2), move(0, 7, 1), move(0, 9, 3), move(3, 0, 3), move(0, 1, -2)), none)
	// The wrapped ring above, with moves in place on both sides of the wrap
	// point before it grows: 4 events at t=3 sit before the wrap, 4 at t=4
	// after it. The one at t=3 moves twice, once after the ring grows; of
	// the two at t=4, one is cancelled after its move, and the other moves
	// to its own time and fires before the events scheduled after it.
	f.Add(deep(wrap...), slices.Concat(move(2*smallQueue+14, 1, 2), move(0, 6, 1), move(0, 7, 0),
		move(5, 1, 0)), none)
	// An observer over an empty queue: the Run horizon at 10 runs its
	// instants at 3, 6 and 9 with nothing queued.
	f.Add([]byte{op(opRun, 10)}, none, arm(0, 3))
	// Two observers armed at one watermark with one interval come due at
	// one instant: they run in arming order, after the event filed before
	// them and before the one filed after. A third, stopped before it runs,
	// never runs.
	f.Add([]byte{op(opSchedule, 5), op(opSchedule, 5), op(opSchedule, 10), op(opRun, 20)}, none,
		slices.Concat(arm(1, 5), arm(0, 5), arm(0, 7), stop(1, 2)))
	// Observers with other intervals meet at shared instants with different
	// watermarks, one is stopped mid-run, and moves re-key the events they
	// are due beside.
	f.Add(deep(rekeyed...), slices.Concat(move(2*smallQueue+20, 0, 7), move(0, 3, 0), move(0, 5, -4)),
		slices.Concat(arm(0, 2), arm(2*smallQueue+20, 5), arm(0, 10), stop(2, 0), arm(0, 1)))
	f.Fuzz(func(t *testing.T, data, moves, obs []byte) {
		e := NewEngine()
		e.EnableChecks()
		// twin runs every op e does, with observers as KindSample chains.
		// Both engines log each event callback by the event's creation
		// index and each observer instant by -1 - the observer's index.
		twin := NewEngine()
		twin.EnableChecks()
		var log, twinLog []int
		type tracked struct {
			ev   *Event // dead once the event fires or is cancelled
			twin *Event // the same event on the twin engine
			id   int    // creation index
			at   Time   // when the event fires
			seq  uint64 // the model's sequence number for it
			// key is when its queue entry comes due: at, except for an
			// event a move re-keyed in its lane, whose entry stays at its
			// slot's time until a Run passes that.
			key       Time
			cancelled bool
		}
		// live holds events that are queued and not cancelled; fire callbacks
		// remove their own entry, mirroring the handle-clearing discipline
		// real timer holders (transport RTO, reorder timer) follow. queue
		// holds every entry no Run has passed yet, cancelled ones included.
		// fired lists the events in fire order.
		var live, queue, fired []*tracked
		var seq uint64
		expect, created := 0, 0
		remove := func(tr *tracked) {
			if i := slices.Index(live, tr); i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		}
		track := func(at Time, abs bool) {
			tr := &tracked{seq: seq, id: created}
			seq++
			created++
			fn := func() {
				if e.Now() != tr.at {
					t.Fatalf("event of model seq %d fired at %d, model time %d", tr.seq, e.Now(), tr.at)
				}
				fired = append(fired, tr)
				log = append(log, tr.id)
				remove(tr)
			}
			twinFn := func() { twinLog = append(twinLog, tr.id) }
			if abs {
				tr.ev = e.At(at, fn)
				tr.twin = twin.At(at, twinFn)
			} else {
				tr.ev = e.Schedule(at, fn)
				tr.twin = twin.Schedule(at, twinFn)
			}
			tr.at = tr.ev.At()
			tr.key = tr.at
			live = append(live, tr)
			queue = append(queue, tr)
		}
		cancel := func(arg int) *tracked {
			tr := live[arg%len(live)]
			tr.ev.Cancel()
			tr.twin.Cancel()
			tr.cancelled = true
			remove(tr)
			return tr
		}
		// reschedule applies a move. In place, the event keeps its queue
		// entry; otherwise its entry stays behind, cancelled, and the event
		// takes a new one.
		reschedule := func(target, offset byte) {
			if len(live) == 0 {
				return
			}
			tr := live[int(target)%len(live)]
			at := tr.at + Time(int8(offset))
			if tr.ev.lane == inHeap || at < tr.at {
				queue = append(queue, &tracked{key: tr.key, cancelled: true})
				tr.key = max(at, e.Now())
			}
			tr.at = max(at, e.Now())
			tr.seq = seq
			seq++
			tr.ev = e.Reschedule(tr.ev, at-e.Now())
			tr.twin = twin.Reschedule(tr.twin, at-twin.Now())
			if tr.ev.At() != tr.at {
				t.Fatalf("Reschedule to %d: event at %d", at, tr.ev.At())
			}
		}
		// observer applies an observer op: arm one on e and its event chain
		// on twin, or stop one on both. Each instant on e must land on its
		// observer's next multiple of the interval since arming.
		type observer struct {
			o        *Observer
			tick     *Event // the chain's pending event on twin
			id       int
			iv, next Time
		}
		var armed []*observer
		observed := 0
		observe := func(b byte) {
			if b&1 == 1 {
				if len(armed) == 0 {
					return
				}
				k := int(b>>1) % len(armed)
				armed[k].o.Stop()
				armed[k].tick.Cancel()
				armed = slices.Delete(armed, k, k+1)
				return
			}
			ob := &observer{id: -1 - observed, iv: Time(b>>1) + 1}
			observed++
			ob.next = e.Now() + ob.iv
			ob.o = e.Every(ob.iv, func() {
				if e.Now() != ob.next {
					t.Fatalf("observer %d ran at %d, want %d", -1-ob.id, e.Now(), ob.next)
				}
				ob.next += ob.iv
				log = append(log, ob.id)
			})
			var tick func()
			tick = func() {
				twinLog = append(twinLog, ob.id)
				ob.tick = twin.ScheduleKind(ob.iv, KindSample, tick)
			}
			ob.tick = twin.ScheduleKind(ob.iv, KindSample, tick)
			armed = append(armed, ob)
		}
		// check compares the engine with the model after an op.
		check := func(when string) {
			t.Helper()
			cancelled := 0
			for _, tr := range queue {
				if tr.cancelled {
					cancelled++
				}
			}
			if got := e.Seq(); got != seq {
				t.Fatalf("%s: Seq() = %d, model %d", when, got, seq)
			}
			if got := e.Pending(); got != len(queue) {
				t.Fatalf("%s: Pending() = %d, model %d", when, got, len(queue))
			}
			byKind, gotCancelled := e.PendingCensus()
			if gotCancelled != cancelled || byKind[KindOther] != len(live) {
				t.Fatalf("%s: PendingCensus() = %d live, %d cancelled; model %d live, %d cancelled",
					when, byKind[KindOther], gotCancelled, len(live), cancelled)
			}
			if err := checkLanes(e); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if e.Now() != twin.Now() || !slices.Equal(log, twinLog) {
				t.Fatalf("%s: at t=%d the engine ran %v; at t=%d its twin ran %v",
					when, e.Now(), log, twin.Now(), twinLog)
			}
		}
		step := func(i int) {
			b := data[i]
			arg := int(b >> 2)
			switch b & 3 {
			case opSchedule:
				track(Time(arg), false)
				expect++
			case opCancel:
				if len(live) == 0 {
					return
				}
				cancel(arg)
				expect--
			case opReschedule:
				if len(live) == 0 {
					return
				}
				track(cancel(arg).at, true)
			case opRun:
				until := e.Now() + Time(arg)
				e.Run(until)
				twin.Run(until)
				queue = slices.DeleteFunc(queue, func(tr *tracked) bool {
					if tr.cancelled {
						return tr.key <= until
					}
					return tr.at <= until
				})
				for _, tr := range queue {
					if tr.key <= until {
						tr.key = tr.at // its slot came due: the event went to the heap
					}
				}
			}
			check(fmt.Sprintf("op %d (%#02x)", i, b))
		}
		// A move or observer op applies before the data op its stream's
		// skips add up to, after the data ops alone once they run out.
		type extra struct {
			before int
			name   string
			apply  func()
		}
		var extras []extra
		for m, n := 0, 0; m+3 <= len(moves); m += 3 {
			n += int(moves[m])
			target, offset := moves[m+1], moves[m+2]
			extras = append(extras, extra{min(n, len(data)), fmt.Sprintf("move %d", m/3),
				func() { reschedule(target, offset) }})
		}
		for k, n := 0, 0; k+2 <= len(obs); k += 2 {
			n += int(obs[k])
			b := obs[k+1]
			extras = append(extras, extra{min(n, len(data)), fmt.Sprintf("observer op %d (%#02x)", k/2, b),
				func() { observe(b) }})
		}
		slices.SortStableFunc(extras, func(a, b extra) int { return a.before - b.before })
		for i := 0; i <= len(data); i++ {
			for ; len(extras) > 0 && extras[0].before == i; extras = extras[1:] {
				extras[0].apply()
				check(fmt.Sprintf("%s before op %d", extras[0].name, i))
			}
			if i < len(data) {
				step(i)
			}
		}
		// Run both engines to the last queue entry, so every event fires
		// beside the observer instants due by then, and stop the observers:
		// the twin's chains would never let its queue drain.
		until := e.Now()
		for _, tr := range queue {
			until = max(until, tr.key, tr.at)
		}
		e.Run(until)
		twin.Run(until)
		for _, ob := range armed {
			ob.o.Stop()
			ob.tick.Cancel()
		}
		e.RunAll()
		twin.RunAll()
		queue = nil
		check("after RunAll")
		if vs := slices.Concat(e.Violations(), twin.Violations()); len(vs) > 0 {
			t.Fatalf("invariant violations: %v", vs)
		}
		instants := 0
		for _, id := range log {
			if id < 0 {
				instants++
			}
		}
		if got := e.Observed(); got != uint64(instants) {
			t.Fatalf("Observed() = %d, ran %d observer instants", got, instants)
		}
		if len(fired) != expect {
			t.Fatalf("fired %d events, want %d", len(fired), expect)
		}
		if len(live) != 0 {
			t.Fatalf("%d tracked events never fired", len(live))
		}
		for j := 1; j < len(fired); j++ {
			if p, q := fired[j-1], fired[j]; !before(p.at, p.seq, q.at, q.seq) {
				t.Fatalf("fire %d: model (%d, %d) after (%d, %d)", j, q.at, q.seq, p.at, p.seq)
			}
		}
	})
}
