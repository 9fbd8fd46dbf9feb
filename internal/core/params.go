// Package core implements Hermes, the paper's contribution: comprehensive
// sensing of path conditions (congestion via ECN fraction and RTT, failures
// via timeout and retransmission monitoring, §3.1), active probing guided by
// the power of two choices with per-rack probe agents (§3.1.3), and timely
// yet cautious rerouting at packet granularity (Algorithm 2, §3.2).
package core

import (
	"fmt"
	"math"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Params are the Hermes knobs of Table 4 plus the ablation switches used in
// §5.4. Durations are virtual nanoseconds; fractions are in [0, 1].
type Params struct {
	// TECN is the ECN-fraction threshold identifying a congested path (40%).
	TECN float64
	// TRTTLow bounds the RTT of a good path (base RTT + 20-40 us).
	TRTTLow sim.Time
	// TRTTHigh is the RTT beyond which a path with high ECN is congested
	// (base RTT + 1.5x one-hop delay; 180 us in the paper's simulations).
	TRTTHigh sim.Time
	// DeltaRTT is the "notably better" RTT margin (one hop delay).
	DeltaRTT sim.Time
	// DeltaECN is the "notably better" ECN-fraction margin (3-10%).
	DeltaECN float64
	// RBps is the flow sending-rate ceiling above which Hermes will not
	// reroute (20-40% of the access link capacity).
	RBps float64
	// SBytes is the minimum bytes a flow must have sent before a
	// congestion-triggered reroute is worthwhile (100-800 KB).
	SBytes int64
	// ProbeInterval is the active probing period (100-500 us); zero
	// disables probing (the Fig 18 ablation).
	ProbeInterval sim.Time
	// ProbeTimeout declares an unanswered probe lost.
	ProbeTimeout sim.Time
	// Tau is the failure-detection window (10 ms): retransmission fractions
	// are evaluated once per Tau.
	Tau sim.Time
	// RetxFracThresh flags a path as failing when its retransmission
	// fraction exceeds it while the path is not congested (1% under DCTCP).
	RetxFracThresh float64
	// TimeoutsForBlackhole is the consecutive-timeout count that, with no
	// ACKs observed on the path, declares a blackhole (3).
	TimeoutsForBlackhole int
	// FailedHold keeps a failed path quarantined before re-evaluation.
	FailedHold sim.Time
	// RerouteCooldown is the minimum spacing between congestion-triggered
	// reroutes of one flow. The path signals are EWMAs fed by ACKs, so they
	// need a few RTTs to reflect a move; rerouting again before they
	// converge turns packet-granularity rerouting into oscillation (most
	// visible on slow links, where each move also costs a deep-queue's
	// worth of reordering).
	RerouteCooldown sim.Time
	// ECNGain and RTTGain are the EWMA gains for the path signals.
	ECNGain, RTTGain float64

	// Ablation switches (§5.4 / DESIGN.md):
	// DisableReroute turns off congestion-triggered rerouting (Algorithm 2
	// lines 13-23); initial placement and failure handling remain.
	DisableReroute bool
	// Vigorous removes the caution gates: every packet goes to the best
	// path currently known, demonstrating congestion mismatch.
	Vigorous bool
	// UseECN gates ECN-based sensing; false makes Hermes rely on RTT only,
	// as in the §5.4 plain-TCP experiment.
	UseECN bool
}

// DefaultParams derives the Table 4 recommended settings from the fabric's
// base RTT and one-hop delay, exactly as §3.3 prescribes.
func DefaultParams(nw *net.Network) Params {
	base := nw.ApproxBaseRTT()
	hop := nw.OneHopDelay()
	return Params{
		TECN:                 0.40,
		TRTTLow:              base + 20*sim.Microsecond,
		TRTTHigh:             base + hop + hop/2,
		DeltaRTT:             hop,
		DeltaECN:             0.05,
		RBps:                 0.30 * float64(nw.Cfg.HostRateBps),
		SBytes:               600_000,
		ProbeInterval:        500 * sim.Microsecond,
		ProbeTimeout:         10 * sim.Millisecond,
		Tau:                  10 * sim.Millisecond,
		RetxFracThresh:       0.01,
		TimeoutsForBlackhole: 3,
		FailedHold:           sim.Second,
		RerouteCooldown:      8 * hop,
		ECNGain:              1.0 / 16,
		RTTGain:              1.0 / 8,
		UseECN:               true,
	}
}

// MinTau and MinProbeInterval are the floors Validate puts on Tau and on a
// non-zero ProbeInterval. The detection window and the probe round each
// re-arm a timer per period, so a period far below the fabric's RTT only
// multiplies a run's events: on the 4x4 fabric with 20 flows a 1 ns Tau
// fired 120.6M events where the derived 10 ms fires 0.63M, and a 100 ns
// probe interval had not finished after 30 s of wall time where 1 us took
// 0.96 s.
const (
	MinTau           = 10 * sim.Microsecond
	MinProbeInterval = 10 * sim.Microsecond
)

// Validate range-checks the parameters: Tau may not be below MinTau, since
// the failure-detection window re-arms itself every Tau (a zero window
// never lets virtual time advance); a non-zero ProbeInterval may not be
// below MinProbeInterval; no duration, SBytes or RBps may be negative;
// every float must be finite; a blackhole takes at least one timeout to
// declare; and the ECN and retransmission thresholds and the EWMA gains are
// fractions in [0, 1].
func (p *Params) Validate() error {
	if p.Tau < MinTau {
		return fmt.Errorf("Tau %d ns is below the floor of %d ns", p.Tau, MinTau)
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{
		{"TRTTLow", p.TRTTLow}, {"TRTTHigh", p.TRTTHigh}, {"DeltaRTT", p.DeltaRTT},
		{"ProbeInterval", p.ProbeInterval}, {"ProbeTimeout", p.ProbeTimeout},
		{"FailedHold", p.FailedHold}, {"RerouteCooldown", p.RerouteCooldown},
	} {
		if d.v < 0 {
			return fmt.Errorf("negative %s %d", d.name, d.v)
		}
	}
	if p.ProbeInterval != 0 && p.ProbeInterval < MinProbeInterval {
		return fmt.Errorf("ProbeInterval %d ns is below the floor of %d ns (0 disables probing)",
			p.ProbeInterval, MinProbeInterval)
	}
	if !(p.RBps >= 0) || math.IsInf(p.RBps, 1) { // NaN too
		return fmt.Errorf("RBps %g must be finite and non-negative", p.RBps)
	}
	if p.SBytes < 0 {
		return fmt.Errorf("negative SBytes %d", p.SBytes)
	}
	if p.TimeoutsForBlackhole < 1 {
		return fmt.Errorf("TimeoutsForBlackhole %d must be at least 1", p.TimeoutsForBlackhole)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TECN", p.TECN}, {"DeltaECN", p.DeltaECN}, {"RetxFracThresh", p.RetxFracThresh},
		{"ECNGain", p.ECNGain}, {"RTTGain", p.RTTGain},
	} {
		if !(f.v >= 0 && f.v <= 1) { // NaN too
			return fmt.Errorf("%s %g out of range [0, 1]", f.name, f.v)
		}
	}
	return nil
}

// PathType is the Algorithm 1 characterization of a path.
type PathType uint8

const (
	// Gray covers all the ambiguous signal combinations of Table 5.
	Gray PathType = iota
	// Good paths have low RTT and low ECN fraction: safe reroute targets.
	Good
	// Congested paths have both high ECN fraction and high RTT.
	Congested
	// Failed paths exhibit blackhole or random-drop symptoms (§3.1.2).
	Failed
)

// String implements fmt.Stringer.
func (t PathType) String() string {
	switch t {
	case Good:
		return "good"
	case Congested:
		return "congested"
	case Failed:
		return "failed"
	default:
		return "gray"
	}
}
