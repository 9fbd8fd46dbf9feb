package sim

import "testing"

// FuzzEventOps drives the engine through an arbitrary stream of
// schedule / cancel / cancel-then-reschedule / partial-run operations and
// asserts that the invariant checker stays clean and that exactly the
// non-cancelled events fire. Each input byte is one operation: the low two
// bits select the op, the high six bits are its argument.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		e.EnableChecks()
		type tracked struct {
			ev *Event
			at Time
		}
		// live holds events that are queued and not cancelled; fire callbacks
		// remove their own entry, mirroring the handle-clearing discipline
		// real timer holders (transport RTO, reorder timer) follow.
		var live []*tracked
		fired, expect := 0, 0
		remove := func(tr *tracked) {
			for i, o := range live {
				if o == tr {
					live = append(live[:i], live[i+1:]...)
					return
				}
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
		}
		for _, b := range data {
			arg := int(b >> 2)
			switch b & 3 {
			case 0: // schedule at now+arg
				track(Time(arg), false)
				expect++
			case 1: // cancel a live event
				if len(live) == 0 {
					continue
				}
				tr := live[arg%len(live)]
				tr.ev.Cancel()
				remove(tr)
				expect--
			case 2: // cancel then reschedule at the exact same timestamp
				if len(live) == 0 {
					continue
				}
				tr := live[arg%len(live)]
				at := tr.at
				tr.ev.Cancel()
				remove(tr)
				track(at, true)
			case 3: // advance the clock partially, firing due events
				e.Run(e.Now() + Time(arg))
			}
		}
		e.RunAll()
		if vs := e.Violations(); len(vs) > 0 {
			t.Fatalf("invariant violations: %v", vs)
		}
		if fired != expect {
			t.Fatalf("fired %d events, want %d", fired, expect)
		}
		if len(live) != 0 {
			t.Fatalf("%d tracked events never fired", len(live))
		}
		if n := e.Pending(); n != 0 {
			t.Fatalf("Pending() = %d after RunAll, want 0", n)
		}
	})
}
