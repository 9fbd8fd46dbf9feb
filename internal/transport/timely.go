package transport

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// TIMELY [26] is the RTT-gradient congestion control the paper cites for
// its RTT measurement methodology. It is included as an extension: the
// paper's experiments use DCTCP (and plain TCP in §5.4), but Hermes' RTT-only
// sensing mode pairs naturally with an RTT-based transport. The
// implementation follows the SIGCOMM'15 algorithm with the rate emulated
// through the congestion window (cwnd = rate x srtt), which preserves this
// transport's loss-recovery machinery while producing TIMELY's
// gradient-driven rate dynamics.

// TimelyParams are the algorithm constants from [26], scaled for the
// simulated fabrics.
type TimelyParams struct {
	TLow  sim.Time // below this RTT: pure additive increase
	THigh sim.Time // above this RTT: multiplicative decrease
	// AddStep is the additive increment in bits/s per update.
	AddStep float64
	// Beta is the multiplicative decrease factor.
	Beta float64
	// MinRateBps floors the sending rate.
	MinRateBps float64
	// EWMA gain for the RTT-difference filter.
	Alpha float64
	// HAI: after N consecutive gradient-negative updates, increase faster.
	HAIThresh int
}

// DefaultTimelyParams derives thresholds from the fabric's base RTT.
func DefaultTimelyParams(baseRTT sim.Time, linkBps int64) TimelyParams {
	return TimelyParams{
		TLow:       baseRTT + baseRTT/2,
		THigh:      baseRTT * 4,
		AddStep:    float64(linkBps) / 100, // 1% of line rate per update
		Beta:       0.8,
		MinRateBps: float64(linkBps) / 1000,
		Alpha:      0.875,
		HAIThresh:  5,
	}
}

// timelyState is the per-flow controller state.
type timelyState struct {
	rateBps   float64
	prevRTT   float64
	rttDiff   float64 // EWMA of consecutive RTT differences
	minRTT    float64
	negStreak int
}

// timelyUpdate implements the TIMELY rate computation on one RTT sample and
// refreshes the emulated window.
func (f *Flow) timelyUpdate(rtt sim.Time) {
	p := f.ep.tr.Opts.Timely
	ts := &f.timely
	r := float64(rtt)
	if ts.rateBps == 0 {
		// Initialize at 10 segments per RTT, TIMELY's equivalent of IW10.
		ts.rateBps = 10 * net.MSS * 8 * 1e9 / r
		ts.prevRTT = r
		ts.minRTT = r
	}
	if r < ts.minRTT {
		ts.minRTT = r
	}
	newDiff := r - ts.prevRTT
	ts.prevRTT = r
	ts.rttDiff = p.Alpha*ts.rttDiff + (1-p.Alpha)*newDiff
	gradient := ts.rttDiff / ts.minRTT

	switch {
	case rtt < p.TLow:
		ts.negStreak++
		ts.rateBps += p.AddStep
	case rtt > p.THigh:
		ts.negStreak = 0
		ts.rateBps *= 1 - p.Beta*(1-float64(p.THigh)/r)
	case gradient <= 0:
		ts.negStreak++
		step := p.AddStep
		if ts.negStreak >= p.HAIThresh {
			step *= 5 // hyperactive increase
		}
		ts.rateBps += step
	default:
		ts.negStreak = 0
		ts.rateBps *= 1 - p.Beta*gradient
	}
	if ts.rateBps < p.MinRateBps {
		ts.rateBps = p.MinRateBps
	}
	// Window emulation: one rate-delay product, floored at a segment.
	f.cwnd = maxf(ts.rateBps*f.srtt/8e9, net.MSS)
	f.ssthresh = f.cwnd
}
