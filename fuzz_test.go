package hermes

import (
	"math"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/checkpoint"
)

// fuzzKinds are the failure kinds FuzzFailureSpec draws from, by index.
var fuzzKinds = []FailureKind{
	FailureRandomDrop, FailureBlackhole, FailureSpineBlackhole,
	FailureDegrade, FailureCutLink, FailureCutCable, FailureDegradeLink,
	FailureFlap, FailureDegradeSpine, FailureSpineDown, FailureLeafDown,
}

// FuzzFailureSpec runs one failure on a 2x2 fabric with 0-2 cables per
// link, 8 flows, the invariant harness on and a 20 ms drain, twice: as the
// static Config.Failure and as the inject event of a scenario. The encoding
// is compact: a kind index, one spine (Spine and CutSpine), two leaves
// (SrcLeaf/CutLeaf and DstLeaf), a cable, a drop rate, a fraction and a
// degraded rate, then the event's onset, duration, period and count, and
// last zero to two explicit Clears of the event (clears mod 3), all at one
// instant. The period is drawn in 100 us steps, so a repeating event cannot
// flap faster than a short run can afford. Every input must either fail
// validation with an error, or run with no engine-invariant or conservation
// error and no panic; a NaN drop rate or fraction must fail, whatever the
// kind. The one run-time error a scenario may end with is an event that
// never fired: an onset or clear past the run's end, which no check made
// before the run can know. A static flap's fixed 1 ms period puts its first
// onset at 0.5 ms, well inside the run.
//
// A static failure that validates runs a second time with every optional
// sink armed, and observing it must not change it: both runs checkpoint at
// 1 ms, while flows still arrive, with the same state in every section, and
// end with the same result.
func FuzzFailureSpec(f *testing.F) {
	for i := range fuzzKinds {
		f.Add(uint8(i), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2),
			int64(1e6), int64(2e6), int16(0), int8(0), uint8(0), int64(0))
	}
	// A repeating event: 0.3 ms down out of every 1 ms, three times.
	f.Add(uint8(6), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2),
		int64(1e6), int64(3e5), int16(10), int8(3), uint8(0), int64(0))
	// NaN drop rate and fraction: random-drop and degrade, which read them,
	// and leaf-down, which does not, must all reject them. A config holding
	// a NaN has no JSON form, so it could not be checkpointed.
	f.Add(uint8(0), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2),
		int64(1e6), int64(0), int16(0), int8(0), uint8(0), int64(0))
	f.Add(uint8(3), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2),
		int64(1e6), int64(0), int16(0), int8(0), uint8(0), int64(0))
	f.Add(uint8(10), int8(1), int8(0), int8(-1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2),
		int64(1e6), int64(0), int16(0), int8(0), uint8(0), int64(0))
	// A Clear of a spine blackhole that already cleared itself 2 ms after
	// its onset, and a second Clear of a one-shot one: both must fail
	// validation, not the run.
	f.Add(uint8(2), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2),
		int64(1e6), int64(2e6), int16(0), int8(0), uint8(1), int64(4e6))
	f.Add(uint8(2), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2),
		int64(1e6), int64(0), int16(0), int8(0), uint8(2), int64(2e6))
	f.Fuzz(func(t *testing.T, kind uint8, spine, leafA, leafB, cable int8,
		rate, fraction float64, bps int64, cables uint8,
		onset, duration int64, every int16, count int8, clears uint8, clearAt int64) {
		cfg := Config{
			Topology: Topology{
				Leaves: 2, Spines: 2, HostsPerLeaf: 2,
				HostRateBps: 10e9, FabricRateBps: 10e9,
				HostDelayNs: 2000, FabricDelayNs: 2000,
				CablesPerLink: int(cables % 3),
			},
			Scheme:   SchemeHermes,
			Workload: "web-search", Load: 0.5, Flows: 8, Seed: 1,
			Checks: true, DrainTimeoutNs: 20e6,
			Failure: FailureSpec{
				Kind:  fuzzKinds[int(kind)%len(fuzzKinds)],
				Spine: int(spine), SrcLeaf: int(leafA), DstLeaf: int(leafB),
				CutLeaf: int(leafA), CutSpine: int(spine), CutCable: int(cable),
				DropRate: rate, Fraction: fraction, DegradedBps: bps,
				FlapPeriodNs: 1e6, FlapDownNs: 5e5,
			},
		}
		fuzzStatic(t, cfg)

		cfg.Scenario = &Scenario{Name: "fuzz", Events: []ScenarioEvent{{
			AtNs: onset, Name: "ev", DurationNs: duration,
			EveryNs: int64(every) * 100e3, Count: int(count), Failure: cfg.Failure,
		}}}
		for i := 0; i < int(clears%3); i++ {
			cfg.Scenario.Events = append(cfg.Scenario.Events, ScenarioEvent{AtNs: clearAt, Clear: "ev"})
		}
		cfg.Failure = FailureSpec{}
		if err := (&run{cfg: cfg}).validate(); err != nil {
			return
		}
		if math.IsNaN(rate) || math.IsNaN(fraction) {
			t.Fatalf("%+v: a NaN rate or fraction passed validation", cfg.Scenario.Events[0])
		}
		if _, err := Run(cfg); err != nil {
			for _, line := range strings.Split(err.Error(), "\n") {
				if !strings.Contains(line, "never fired") {
					t.Fatalf("%+v passed validation, then the run failed: %v", cfg.Scenario.Events, err)
				}
			}
		}
	})
}

// fuzzStatic runs cfg's static failure plain and observed, if it validates.
func fuzzStatic(t *testing.T, cfg Config) {
	if err := (&run{cfg: cfg}).validate(); err != nil {
		return
	}
	if math.IsNaN(cfg.Failure.DropRate) || math.IsNaN(cfg.Failure.Fraction) {
		t.Fatalf("%+v: a NaN rate or fraction passed validation", cfg.Failure)
	}
	cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: []int64{1e6}}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("%+v passed validation, then the run failed: %v", cfg.Failure, err)
	}
	cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: cfg.Checkpoint.AtNs}
	observed, err := Run(observeAll(cfg))
	if err != nil {
		t.Fatalf("%+v with every sink armed: %v", cfg.Failure, err)
	}
	if a, b := simulated(t, plain), simulated(t, observed); a != b {
		t.Fatalf("%+v: observing changed the result:\n plain    %s\n observed %s", cfg.Failure, a, b)
	}
	want, got := checkpointStates(t, plain), checkpointStates(t, observed)
	if len(want) != len(got) {
		t.Fatalf("%+v: %d checkpoints unobserved, %d observed", cfg.Failure, len(want), len(got))
	}
	for i := range want {
		if d := checkpoint.Diff(want[i], got[i]); len(d) > 0 {
			t.Fatalf("%+v: observing changed the checkpoint at %d ns: %+v",
				cfg.Failure, plain.Checkpoints[i].SimTimeNs, d)
		}
	}
}
