package chaos

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// syntheticRecording builds a recorder whose goodput dips from 10 to 2 Gbps
// over [10ms, 30ms), with a Hermes detection transition at 12ms, a reroute
// counter step at 13ms, and a failed->good restoration at 42ms.
func syntheticRecording(t *testing.T) *timeseries.Recorder {
	t.Helper()
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 0)
	now := func() int64 { return int64(eng.Now()) }
	rec.Register("net.goodput_gbps", func() float64 {
		if now() >= 10e6 && now() < 30e6 {
			return 2
		}
		return 10
	})
	rec.Register("hermes.timeout_reroutes_total", func() float64 {
		if now() >= 13e6 {
			return 4
		}
		return 0
	})
	rec.Register("hermes.failure_reroutes_total", func() float64 { return 0 })
	rec.Transitions.Add(timeseries.Transition{
		AtNs: 12e6, Leaf: 0, Dst: 1, Path: 0, From: "good", To: "failed", Cause: "timeout"})
	rec.Transitions.Add(timeseries.Transition{
		AtNs: 42e6, Leaf: 0, Dst: 1, Path: 0, From: "failed", To: "good", Cause: "hold-expired"})
	rec.Start()
	eng.Run(60 * sim.Millisecond)
	rec.Stop()
	return rec
}

func TestComputeRecovery(t *testing.T) {
	rec := syntheticRecording(t)
	log := []*Applied{{
		Name: "bh", Kind: "blackhole", Label: "blackhole(spine=0)",
		OnsetNs: 10e6, ClearNs: 30e6, Scope: Scope{Spines: []int{0}},
	}}
	r := Compute(rec, log, Options{Cables: 1, TrafficEndNs: 55e6, Smooth: 1})
	if len(r.Events) != 1 {
		t.Fatalf("%d events, want 1", len(r.Events))
	}
	e := r.Events[0]
	if e.TimeToDetectNs != 2e6 {
		t.Errorf("TimeToDetect = %d, want 2ms", e.TimeToDetectNs)
	}
	if e.TimeToRerouteNs != 3e6 {
		t.Errorf("TimeToReroute = %d, want 3ms", e.TimeToRerouteNs)
	}
	if e.BaselineGbps < 9.9 || e.BaselineGbps > 10.1 {
		t.Errorf("Baseline = %v, want ~10", e.BaselineGbps)
	}
	if e.DipDepth < 0.75 || e.DipDepth > 0.85 {
		t.Errorf("DipDepth = %v, want ~0.8", e.DipDepth)
	}
	// Dip spans 10..30ms of samples; duration ~20ms (sample-aligned).
	if e.DipDurationNs < 18e6 || e.DipDurationNs > 22e6 {
		t.Errorf("DipDuration = %d, want ~20ms", e.DipDurationNs)
	}
	// Deficit 8 Gbps for 20ms -> ~160 Gbps*ms.
	if e.DipIntegralGbpsMs < 140 || e.DipIntegralGbpsMs > 180 {
		t.Errorf("DipIntegral = %v, want ~160", e.DipIntegralGbpsMs)
	}
	if e.ReconvergeNs < 0 || e.ReconvergeNs > 2e6 {
		t.Errorf("Reconverge = %d, want within 2ms of clear", e.ReconvergeNs)
	}
	if e.PathRestoreNs != 12e6 {
		t.Errorf("PathRestore = %d, want 12ms (42ms - 30ms clear)", e.PathRestoreNs)
	}
}

// TestComputeRecoveryOutOfScope: transitions on other spines must not count
// as detection, and schemes with no transitions/reroutes report -1.
func TestComputeRecoveryOutOfScope(t *testing.T) {
	rec := syntheticRecording(t)
	log := []*Applied{{
		Name: "bh", Kind: "blackhole", OnsetNs: 10e6, ClearNs: -1,
		Scope: Scope{Spines: []int{3}}, // transition above is on spine 0
	}}
	r := Compute(rec, log, Options{Cables: 1, TrafficEndNs: 55e6, Smooth: 1})
	e := r.Events[0]
	if e.TimeToDetectNs != -1 {
		t.Errorf("out-of-scope TimeToDetect = %d, want -1", e.TimeToDetectNs)
	}
	if e.ReconvergeNs != -1 || e.PathRestoreNs != -1 {
		t.Errorf("uncleared event Reconverge/PathRestore = %d/%d, want -1/-1",
			e.ReconvergeNs, e.PathRestoreNs)
	}
}

// TestComputeRecoveryNoDip: a scheme that rides through reports a zero dip.
func TestComputeRecoveryNoDip(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 0)
	rec.Register("net.goodput_gbps", func() float64 { return 10 })
	rec.Start()
	eng.Run(60 * sim.Millisecond)
	rec.Stop()
	log := []*Applied{{Name: "x", Kind: "random-drop", OnsetNs: 10e6, ClearNs: 30e6}}
	e := Compute(rec, log, Options{TrafficEndNs: 55e6}).Events[0]
	if e.DipDurationNs != 0 || e.DipDepth != 0 || e.DipIntegralGbpsMs != 0 {
		t.Errorf("flat goodput scored dip %d/%v/%v, want zeros",
			e.DipDurationNs, e.DipDepth, e.DipIntegralGbpsMs)
	}
	if e.ReconvergeNs != 0 {
		t.Errorf("Reconverge = %d, want 0 (already above floor at clear)", e.ReconvergeNs)
	}
}

// TestComputeRecoveryOnsetTooEarly: no pre-onset baseline window -> dip
// metrics stay unset rather than comparing against garbage.
func TestComputeRecoveryOnsetTooEarly(t *testing.T) {
	rec := syntheticRecording(t)
	log := []*Applied{{Name: "x", Kind: "cut-link", OnsetNs: 0, ClearNs: -1}}
	e := Compute(rec, log, Options{TrafficEndNs: 55e6}).Events[0]
	if e.BaselineGbps != 0 || e.DipDurationNs != -1 {
		t.Errorf("onset-at-0 baseline/dip = %v/%d, want 0/-1", e.BaselineGbps, e.DipDurationNs)
	}
}

func TestScopeHasPath(t *testing.T) {
	s := Scope{Spines: []int{1}}
	if !s.HasPath(0, 2, 2, 2) { // path 2, 2 cables -> spine 1
		t.Error("path on scoped spine not matched")
	}
	if s.HasPath(0, 2, 0, 2) { // path 0 -> spine 0
		t.Error("path on other spine matched")
	}
	if !(Scope{}).HasPath(0, 1, 5, 2) {
		t.Error("empty scope must match everything")
	}
	l := Scope{Leaves: []int{3}}
	if !l.HasPath(3, 1, 0, 1) || !l.HasPath(0, 3, 0, 1) || l.HasPath(0, 1, 0, 1) {
		t.Error("leaf scoping wrong")
	}
	// Both dimensions populated: ALL must match, else a rack-pair blackhole
	// would claim ambient transitions on healthy spines that share a leaf.
	both := Scope{Spines: []int{0}, Leaves: []int{0, 1}}
	if !both.HasPath(0, 1, 0, 1) {
		t.Error("spine+leaf match rejected")
	}
	if both.HasPath(0, 1, 1, 1) {
		t.Error("wrong spine accepted on a leaf match alone")
	}
	if both.HasPath(2, 3, 0, 1) {
		t.Error("wrong leaves accepted on a spine match alone")
	}
}

// TestDetectIgnoresCongestion: transitions into "congested" are load
// sensing, not failure detection — only gray/failed count.
func TestDetectIgnoresCongestion(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 0)
	rec.Transitions.Add(timeseries.Transition{
		AtNs: 11e6, Leaf: 0, Dst: 1, Path: 0, From: "good", To: "congested", Cause: "ack"})
	rec.Transitions.Add(timeseries.Transition{
		AtNs: 14e6, Leaf: 0, Dst: 1, Path: 0, From: "congested", To: "gray", Cause: "verdict"})
	rec.Start()
	eng.Run(20 * sim.Millisecond)
	rec.Stop()
	log := []*Applied{{Name: "bh", Kind: "blackhole", OnsetNs: 10e6, ClearNs: -1,
		Scope: Scope{Spines: []int{0}}}}
	e := Compute(rec, log, Options{TrafficEndNs: 20e6}).Events[0]
	if e.TimeToDetectNs != 4e6 {
		t.Errorf("TimeToDetect = %d, want 4ms (the gray verdict, not the congested blip)",
			e.TimeToDetectNs)
	}
}

// TestComputeRecoveryEvictedOnset: when the ring has evicted every
// pre-onset sample, reroute attribution and dip metrics must report
// "unknown" (-1/unset) instead of eviction artifacts.
func TestComputeRecoveryEvictedOnset(t *testing.T) {
	eng := sim.NewEngine()
	rec := timeseries.NewRecorder(eng, sim.Millisecond, 8) // keeps last 8 ms only
	now := func() int64 { return int64(eng.Now()) }
	rec.Register("net.goodput_gbps", func() float64 { return 10 })
	rec.Register("hermes.timeout_reroutes_total", func() float64 {
		if now() >= 12e6 {
			return 3
		}
		return 0
	})
	rec.Start()
	eng.Run(60 * sim.Millisecond)
	rec.Stop()
	if ts := rec.Times(); len(ts) == 0 || ts[0] <= 10e6 {
		t.Fatalf("ring retained pre-onset samples (%v); the test premise is wrong", ts)
	}
	log := []*Applied{{Name: "bh", Kind: "blackhole", OnsetNs: 10e6, ClearNs: -1}}
	e := Compute(rec, log, Options{TrafficEndNs: 55e6}).Events[0]
	if e.TimeToRerouteNs != -1 {
		t.Errorf("TimeToReroute = %d with evicted onset, want -1", e.TimeToRerouteNs)
	}
	if e.BaselineGbps != 0 || e.DipDurationNs != -1 {
		t.Errorf("baseline/dip = %v/%d with evicted onset, want 0/-1",
			e.BaselineGbps, e.DipDurationNs)
	}
}
