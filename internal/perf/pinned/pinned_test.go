package pinned

import "testing"

// TestFixedDelaysEventMemory is the engine's memory guard. EngineFixedDelays
// cancels and re-arms a flow's 10 ms timer on every hop, so ~167k timers are
// pending at once but only one per flow is live. A cancelled timer must free
// its event at once: once the queue drains, the engine has handed out a
// small multiple of the peak live events (the free list then holds every
// event it handed out), not one event per pending timer.
func TestFixedDelaysEventMemory(t *testing.T) {
	s := newFixedDelays()
	s.run(2 * fixedDelayOpsPerRTO)
	if p := s.e.Pending(); p < fixedDelayOpsPerRTO*9/10 {
		t.Fatalf("Pending() = %d, want the ~%d-timer backlog", p, fixedDelayOpsPerRTO)
	}
	// Drain: every packet makes one last hop, then every timer expires.
	s.left = 0
	s.e.RunAll()
	if p := s.e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after draining, want 0", p)
	}
	live := fixedDelayFlows + fixedDelayInFlight
	if got := s.e.FreeEvents(); got > 2*live {
		t.Fatalf("the engine handed out %d events for %d live ones, want at most %d", got, live, 2*live)
	}
}

// TestRearmEventMemory is the memory guard for timers moved in place.
// EngineRearm's hop loop moves a flow's timer on every hop, so its queue
// must stay near its 1,046 live timers and packets, where cancelling and
// scheduling anew keeps ~167k entries. Once the queue drains, the engine
// must have handed out at most two events per live one.
func TestRearmEventMemory(t *testing.T) {
	s := newHopLoop(rearmHop)
	live := fixedDelayFlows + fixedDelayInFlight
	for i := 0; i < 4; i++ {
		s.run(fixedDelayOpsPerRTO / 2)
		if p := s.e.Pending(); p > 3*live {
			t.Fatalf("Pending() = %d after %d ops, want at most %d", p, (i+1)*fixedDelayOpsPerRTO/2, 3*live)
		}
	}
	s.left = 0
	s.e.RunAll()
	if p := s.e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after draining, want 0", p)
	}
	if got := s.e.FreeEvents(); got > 2*live {
		t.Fatalf("the engine handed out %d events for %d live ones, want at most %d", got, live, 2*live)
	}
}
