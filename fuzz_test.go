package hermes

import (
	"math"
	"testing"
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
// panic; a NaN drop rate or fraction must fail. A flap's fixed 1 ms period
// puts its first onset at 0.5 ms, well inside the run.
func FuzzFailureSpec(f *testing.F) {
	for i := range fuzzKinds {
		f.Add(uint8(i), int8(1), int8(0), int8(1), int8(1), 0.05, 0.5, int64(5e9), uint8(2))
	}
	// NaN drop rate and fraction: random-drop and degrade must reject them.
	f.Add(uint8(0), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2))
	f.Add(uint8(3), int8(1), int8(0), int8(1), int8(1), math.NaN(), math.NaN(), int64(5e9), uint8(2))
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
		if k := cfg.Failure.Kind; k == FailureRandomDrop && math.IsNaN(rate) || k == FailureDegrade && math.IsNaN(fraction) {
			t.Fatalf("%+v: a NaN rate or fraction passed validation", cfg.Failure)
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%+v passed validation, then the run failed: %v", cfg.Failure, err)
		}
	})
}
