package sim

import (
	"math"
	"time"
)

// Observer is a periodic hook armed with Every. It runs between events and
// is not an event: it takes no sequence number, and Fired, Pending and
// PendingCensus never count it, so arming one cannot change a run's
// fingerprint.
type Observer struct {
	eng   *Engine
	fn    func()
	every Time
	at    Time   // next instant
	wm    uint64 // watermark: the engine's Seq when the observer was armed or last ran
	armed bool
}

// Every arms fn to run every interval nanoseconds of virtual time from now,
// until the returned observer is stopped. An observer instant runs exactly
// where an event scheduled with ScheduleKind(interval, KindSample, ...)
// when the observer was armed or last ran would fire: after every event
// filed before that, and before events due at the same instant that were
// filed after it. Observers due at the same instant run in the order they
// were armed or last ran, which for observers that share an interval is the
// order they were armed in.
//
// Run(until) runs the instants due by until even when the queue is empty,
// and RunAll returns once the queue drains. The profiler counts and times
// each instant as KindSample; Observed counts them. fn must only read the
// simulation: with EnableChecks, an instant that schedules an event is a
// violation. Every panics if interval is not positive.
func (e *Engine) Every(interval Time, fn func()) *Observer {
	if interval <= 0 {
		panic("sim: Every needs a positive interval")
	}
	o := &Observer{eng: e, fn: fn, every: interval}
	e.arm(o)
	return o
}

// Stop disarms the observer; no instant of it runs after Stop returns.
// Stopping a nil or stopped observer does nothing.
func (o *Observer) Stop() {
	if o == nil || !o.armed {
		return
	}
	o.armed = false
	e := o.eng
	for i, p := range e.obs {
		if p == o {
			e.obs = append(e.obs[:i], e.obs[i+1:]...)
			break
		}
	}
	e.obsAt = math.MaxInt64
	if len(e.obs) > 0 {
		e.obsAt = e.obs[0].at
	}
}

// Observed returns the number of observer instants run so far.
func (e *Engine) Observed() uint64 { return e.observed }

// arm (re-)arms o one interval from now with the current watermark, and
// files it behind every armed observer due no later, so observers due at
// one instant keep the order they were armed in.
func (e *Engine) arm(o *Observer) {
	o.at, o.wm, o.armed = e.after(o.every), e.seq, true
	e.obs = append(e.obs, o)
	i := len(e.obs) - 1
	for ; i > 0 && e.obs[i-1].at > o.at; i-- {
		e.obs[i] = e.obs[i-1]
	}
	e.obs[i] = o
	e.obsAt = e.obs[0].at
}

// observerFirst reports whether the first observer, due at obsAt, runs
// before the next queue entry, due at at >= obsAt: it does unless the entry
// is due at the same instant and was filed before the observer's watermark.
func (e *Engine) observerFirst(at Time, inLane bool) bool {
	if len(e.obs) == 0 {
		return false
	}
	if e.obsAt < at {
		return true
	}
	var seq uint64
	if inLane {
		seq = e.lanes[e.order[0]].seq
	} else {
		seq = e.heap[0].seq
	}
	return e.obs[0].wm <= seq
}

// observe runs the first observer's instant and, unless the instant
// stopped it, re-arms it. Observers the instant arms come due later, so the
// running one stays first in the list.
func (e *Engine) observe() {
	o := e.obs[0]
	e.now = o.at
	e.observed++
	seq := e.seq
	if e.prof != nil {
		e.profiledObserve(o.fn)
	} else {
		o.fn()
	}
	if e.checks && e.seq != seq {
		e.violate("observer at t=%d moved Seq from %d to %d", o.at, seq, e.seq)
	}
	if o.armed {
		e.obs = append(e.obs[:0], e.obs[1:]...)
		e.arm(o)
	}
}

// profiledObserve runs one observer instant as profiledFire runs an event,
// accounted to KindSample. The instant holds no queue entry, so it leaves
// the queue peak alone.
func (e *Engine) profiledObserve(fn func()) {
	p := e.prof
	if !p.count(KindSample) {
		fn()
		return
	}
	start := time.Now()
	fn()
	p.sampledNs[KindSample] += int64(time.Since(start))
	p.sampledFires[KindSample]++
}
