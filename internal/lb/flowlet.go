package lb

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// flowletTable holds the flowlet state of the flowlet balancers (LetFlow,
// CONGA, HULA, CLOVE-ECN, Edge-Flowlet): per flow, the path its current
// flowlet took and when the flow last sent. The zero value is ready to use.
type flowletTable struct {
	m map[uint64]*flowletEntry
}

type flowletEntry struct {
	path int
	last sim.Time
}

// lookup stamps flow id as sending at now and returns its entry, with
// whether a new flowlet starts: the flow is new, was idle for longer than
// timeout, or its flowlet's path is no longer in paths. When one starts the
// caller picks the path and stores it in the entry.
func (t *flowletTable) lookup(id uint64, now, timeout sim.Time, paths []int) (*flowletEntry, bool) {
	if t.m == nil {
		t.m = map[uint64]*flowletEntry{}
	}
	e := t.m[id]
	if e == nil {
		e = &flowletEntry{path: net.PathAny}
		t.m[id] = e
	}
	fresh := e.path == net.PathAny || now-e.last > timeout || !contains(paths, e.path)
	e.last = now
	return e, fresh
}

// sweep evicts, every 100 ms, the entries idle for longer than ten timeouts
// plus 10 ms, so that a switch's table does not grow without bound across a
// run. An evicted flow starts a new flowlet when it next sends, as it would
// have after that idle time anyway.
func (t *flowletTable) sweep(eng *sim.Engine, timeout sim.Time) {
	eng.ScheduleKind(100*sim.Millisecond, sim.KindTimer, func() {
		now := eng.Now()
		for id, e := range t.m {
			if now-e.last > 10*timeout+10*sim.Millisecond {
				delete(t.m, id)
			}
		}
		t.sweep(eng, timeout)
	})
}
