package sim

import (
	"fmt"
	"slices"
	"testing"
)

// Fuzz ops: each input byte is one operation. The low two bits select the
// op, the high six bits are its argument.
const (
	opSchedule   = 0 // schedule at now+arg
	opCancel     = 1 // cancel live[arg%len(live)]
	opReschedule = 2 // cancel live[arg%len(live)], reschedule at its time
	opRun        = 3 // run to now+arg
)

func op(code, arg int) byte { return byte(arg<<2 | code) }

// FuzzEventOps drives the engine through an arbitrary stream of
// schedule / cancel / cancel-then-reschedule / partial-run operations and
// asserts that the invariant checker stays clean, that exactly the
// non-cancelled events fire, and that after every op Pending and
// PendingCensus match a model in which a cancelled event stays pending until
// a Run passes its time.
func FuzzEventOps(f *testing.F) {
	f.Add([]byte{0x00, 0x14, 0x41, 0x02, 0x83, 0xc4, 0x10, 0xff})
	f.Add([]byte{0x01, 0x01, 0x01})                         // cancels with nothing live
	f.Add([]byte{0x00, 0x00, 0x02, 0x02, 0x06, 0x03})       // same-instant churn
	f.Add([]byte{0xfc, 0x00, 0x04, 0x08, 0x07, 0x0b, 0x0f}) // run interleaved with ops
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
	f.Add(spill)
	// A deep backlog on one delay, then schedule/run rounds across 32 more
	// delays: lanes drain and are re-keyed one at a time.
	var rekey []byte
	for i := 0; i < 80; i++ {
		rekey = append(rekey, 63<<2)
	}
	for d := 0; d < 32; d++ {
		rekey = append(rekey, byte(62-d)<<2, byte(d)<<2, 0x03|byte(d)<<2)
	}
	f.Add(rekey)
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
	f.Add(deep(lane...))
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
	f.Add(deep(wrap...))
	// Five busy lanes with interleaved heads: delays 20, 30, 31, 32 and 50
	// scheduled at t=0, then a second delay-20 event at t=15. Taking the
	// head at 20 leaves that lane's new head at 35, which moves back three
	// places, between the heads at 32 and 50.
	f.Add(deep(op(opSchedule, 20), op(opSchedule, 30), op(opSchedule, 31), op(opSchedule, 32),
		op(opSchedule, 50), op(opRun, 15), op(opSchedule, 20), op(opRun, 5), op(opRun, 63)))
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
	f.Add(allLanes(op(opRun, 1), op(opSchedule, 2), op(opSchedule, 1), op(opRun, 63)))
	// A 17th delay, 60, arrives while every lane is busy and goes to the
	// heap. Its next event, after the delay-1 lane drains, claims that lane,
	// and delay 1, which no longer maps to it, goes to the heap.
	f.Add(allLanes(op(opSchedule, 60), op(opRun, 1), op(opSchedule, 60), op(opSchedule, 1),
		op(opRun, 63), op(opRun, 63)))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		e.EnableChecks()
		type tracked struct {
			ev        *Event // dead once the event fires or is cancelled
			at        Time
			cancelled bool
		}
		// live holds events that are queued and not cancelled; fire callbacks
		// remove their own entry, mirroring the handle-clearing discipline
		// real timer holders (transport RTO, reorder timer) follow. queue
		// holds every event no Run has passed yet, cancelled ones included.
		var live, queue []*tracked
		fired, expect := 0, 0
		remove := func(tr *tracked) {
			if i := slices.Index(live, tr); i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
		}
		track := func(at Time, abs bool) {
			tr := &tracked{}
			fn := func() {
				fired++
				remove(tr)
			}
			if abs {
				tr.ev = e.At(at, fn)
			} else {
				tr.ev = e.Schedule(at, fn)
			}
			tr.at = tr.ev.At()
			live = append(live, tr)
			queue = append(queue, tr)
		}
		cancel := func(arg int) *tracked {
			tr := live[arg%len(live)]
			tr.ev.Cancel()
			tr.cancelled = true
			remove(tr)
			return tr
		}
		// check compares the engine with the model after op i (-1: RunAll).
		check := func(i int) {
			t.Helper()
			when := "after RunAll"
			if i >= 0 {
				when = fmt.Sprintf("op %d (%#02x)", i, data[i])
			}
			cancelled := 0
			for _, tr := range queue {
				if tr.cancelled {
					cancelled++
				}
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
		}
		for i, b := range data {
			arg := int(b >> 2)
			switch b & 3 {
			case opSchedule:
				track(Time(arg), false)
				expect++
			case opCancel:
				if len(live) == 0 {
					continue
				}
				cancel(arg)
				expect--
			case opReschedule:
				if len(live) == 0 {
					continue
				}
				track(cancel(arg).at, true)
			case opRun:
				until := e.Now() + Time(arg)
				e.Run(until)
				queue = slices.DeleteFunc(queue, func(tr *tracked) bool { return tr.at <= until })
			}
			check(i)
		}
		e.RunAll()
		queue = nil
		check(-1)
		if vs := e.Violations(); len(vs) > 0 {
			t.Fatalf("invariant violations: %v", vs)
		}
		if fired != expect {
			t.Fatalf("fired %d events, want %d", fired, expect)
		}
		if len(live) != 0 {
			t.Fatalf("%d tracked events never fired", len(live))
		}
	})
}
