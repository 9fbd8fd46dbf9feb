package hermes

import (
	"math"
	"testing"

	"github.com/hermes-repro/hermes/internal/checkpoint"
)

// fuzzKinds are the failure kinds FuzzFailureSpec draws from, by index.
var fuzzKinds = []FailureKind{
	FailureRandomDrop, FailureBlackhole, FailureSpineBlackhole,
	FailureDegrade, FailureCutLink, FailureCutCable, FailureDegradeLink,
	FailureFlap, FailureDegradeSpine, FailureSpineDown, FailureLeafDown,
}

// FuzzFailureSpec runs one static failure on a 2x2 fabric with 0-2 cables
// per link, 8 flows, the invariant harness on and a 20 ms drain. The
// encoding is compact: a kind index, one spine (Spine and CutSpine), two
// leaves (SrcLeaf/CutLeaf and DstLeaf), a cable, a drop rate, a fraction
// and a degraded rate. Every input must either fail validation with an
// error, or run with no engine-invariant or conservation error and no
// panic; a NaN drop rate or fraction must fail, whatever the kind. A flap's
// fixed 1 ms period puts its first onset at 0.5 ms, well inside the run.
//
// An input that validates runs a second time with every optional sink
// armed, and observing it must not change it: both runs checkpoint at 1 ms,
// while flows still arrive, with the same state in every section, and end
// with the same result.
func FuzzFailureSpec(f *testing.F) {
	for i := range fuzzKinds {
		f.Add(uint8(i), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2))
	}
	// NaN drop rate and fraction: random-drop and degrade, which read them,
	// and leaf-down, which does not, must all reject them. A config holding
	// a NaN has no JSON form, so it could not be checkpointed.
	f.Add(uint8(0), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2))
	f.Add(uint8(3), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2))
	f.Add(uint8(10), int8(1), int8(0), int8(-1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2))
	f.Fuzz(func(t *testing.T, kind uint8, spine, leafA, leafB, cable int8,
		rate, fraction float64, bps int64, cables uint8) {
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
		if err := (&run{cfg: cfg}).validate(); err != nil {
			return
		}
		if math.IsNaN(rate) || math.IsNaN(fraction) {
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
	})
}
