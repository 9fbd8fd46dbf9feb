package sim_test

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/perf/pinned"
	"github.com/hermes-repro/hermes/internal/sim"
)

// The benchmark body lives in internal/perf/pinned so `hermes-bench -perf`
// can run the exact same code and append the result to the perf ledger.
func BenchmarkEngineScheduleRun(b *testing.B) { pinned.EngineScheduleRun(b) }

func BenchmarkEngineFixedDelays(b *testing.B) { pinned.EngineFixedDelays(b) }

func BenchmarkEngineRearm(b *testing.B) { pinned.EngineRearm(b) }

// TestEngineScheduleAllocGuard pins the engine's zero-allocation contract
// mechanically: a warm engine schedules and fires without touching the heap,
// with profiling off AND on (the profiled fire path uses only fixed arrays
// and time.Now, neither of which allocates).
func TestEngineScheduleAllocGuard(t *testing.T) {
	for _, mode := range []struct {
		name    string
		profile bool
	}{{"profile-off", false}, {"profile-on", true}} {
		t.Run(mode.name, func(t *testing.T) {
			e := sim.NewEngine()
			if mode.profile {
				e.EnableProfile(4)
			}
			// Warm the free list and heap capacity.
			for i := 0; i < 1000; i++ {
				e.ScheduleCall(sim.Time(i%37), func(a1, a2 any) {}, nil, nil)
			}
			e.RunAll()
			body := func() {
				for i := 0; i < 64; i++ {
					e.ScheduleCallKind(sim.Time(i%17), sim.KindPortTx, func(a1, a2 any) {}, nil, nil)
				}
				e.RunAll()
			}
			if got := testing.AllocsPerRun(100, body); got != 0 {
				t.Fatalf("warm schedule/fire allocs = %v, want 0", got)
			}
		})
	}
}
