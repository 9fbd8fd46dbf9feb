package core

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// PathState is the sensing state Hermes keeps per (destination leaf, path):
// the Table 3 variables f_ECN, t_RTT, n_timeout, f_retransmission and r_p.
type PathState struct {
	// Congestion signals (EWMA-smoothed).
	ecn        float64 // fraction of ECN-marked deliveries
	rtt        float64 // smoothed RTT, ns
	ecnSamples int
	rttSamples int

	// Failure signals, windowed over Tau.
	winPkts int // deliveries + probe outcomes observed this window
	winRetx int // retransmission + probe-loss events this window

	// Blackhole detection: consecutive timeouts with no intervening ACK.
	consecTimeouts int
	// Consecutive probe losses with no intervening success or delivery.
	consecProbeLoss int

	// Aggregate local sending rate on this path (r_p).
	dre net.DRE

	failedUntil sim.Time // quarantine horizon; 0 when healthy
}

// ECNFraction returns the smoothed marked fraction.
func (ps *PathState) ECNFraction() float64 { return ps.ecn }

// RTT returns the smoothed RTT in nanoseconds (0 before any sample).
func (ps *PathState) RTT() sim.Time { return sim.Time(ps.rtt) }

// RateBps returns the aggregate local sending rate on the path (r_p).
func (ps *PathState) RateBps(now sim.Time) float64 { return ps.dre.RateBps(now) }

// Monitor is the per-rack sensing module: one instance is shared by every
// hypervisor (host) under a leaf, mirroring how Hermes shares probe results
// rack-wide (§3.1.3). It aggregates data-plane signals from all local flows
// with active probe measurements and characterizes each (dstLeaf, path)
// according to Algorithm 1.
type Monitor struct {
	Net     *net.Network
	SrcLeaf int
	P       Params

	paths [][]*PathState // [dstLeaf][path]

	// Telemetry.
	Reroutes       uint64
	FailMarkEvents uint64

	// Audit, when non-nil, receives a verdict entry for every failed-path
	// mark with the Algorithm 1 rule that fired as its reason.
	Audit *telemetry.AuditLog

	// Transitions, when non-nil, logs every change in a path's Algorithm 1
	// characterization together with the signal that caused it ("ack",
	// "probe", "verdict:<reason>", "hold-expired"). Classification is
	// pull-computed, so transitions are detected at the intake sites that
	// can change it and by periodic ScanTransitions sweeps for quarantine
	// expiry. One nil check per intake event when disabled.
	Transitions *timeseries.Log[timeseries.Transition]
	// logged is the transition log's cursor: each (dstLeaf, path)'s
	// characterization as last logged, at dstLeaf*NPaths+path. It lives
	// outside the sensing table, so logging changes nothing a checkpoint
	// captures. The zero value is Gray, the classification of a path with
	// no samples, so the first logged change is always a real one.
	logged []PathType

	stopped bool
}

// NewMonitor builds the monitor for one source leaf.
func NewMonitor(nw *net.Network, srcLeaf int, p Params) *Monitor {
	L, S := nw.Cfg.Leaves, nw.NPaths()
	m := &Monitor{Net: nw, SrcLeaf: srcLeaf, P: p, logged: make([]PathType, L*S)}
	m.paths = make([][]*PathState, L)
	for d := 0; d < L; d++ {
		m.paths[d] = make([]*PathState, S)
		for s := 0; s < S; s++ {
			m.paths[d][s] = &PathState{dre: net.NewDRE(0)}
		}
	}
	m.scheduleWindow()
	return m
}

func (m *Monitor) scheduleWindow() {
	m.Net.Eng.ScheduleKind(m.P.Tau, sim.KindProbe, func() {
		if m.stopped {
			return
		}
		m.rollWindow()
		m.scheduleWindow()
	})
}

// Stop retires the monitor: its periodic window roll stops rescheduling and
// transition scans go quiet. A what-if fork calls this on the outgoing
// scheme's monitors so the replaced Hermes instance leaves no periodic
// machinery behind.
func (m *Monitor) Stop() {
	m.stopped = true
	m.Transitions = nil
}

// rollWindow evaluates the per-Tau failure condition of Algorithm 1 line 8:
// a high retransmission fraction on a path that is not congested indicates
// silent random drops.
func (m *Monitor) rollWindow() {
	now := m.Net.Eng.Now()
	for d := range m.paths {
		for s, ps := range m.paths[d] {
			if ps.winPkts >= 32 { // demand a meaningful sample before judging
				frac := float64(ps.winRetx) / float64(ps.winPkts)
				// Congestion causes retransmissions too (§3.1.2), and under
				// DCTCP a congested path always shows elevated ECN marking
				// well before drop-tail losses. Only a path that looks
				// clearly uncongested — low ECN and sub-congestion RTT —
				// while still losing packets is a malfunctioning switch.
				uncongested := sim.Time(ps.rtt) < m.P.TRTTHigh &&
					(!m.P.UseECN || ps.ecn < m.P.TECN/2)
				if frac > m.P.RetxFracThresh && uncongested {
					m.markFailed(d, s, ps, telemetry.ReasonSilentDrop, now)
				}
			}
			ps.winPkts, ps.winRetx = 0, 0
		}
	}
}

func (m *Monitor) markFailed(dstLeaf, path int, ps *PathState, reason string, now sim.Time) {
	// All verdicts quarantine for FailedHold and then re-evaluate: a real
	// blackhole re-triggers within ~3 RTOs, a congestion false-positive
	// recovers instead of cascading.
	ps.failedUntil = now + m.P.FailedHold
	m.FailMarkEvents++
	m.Audit.Add(telemetry.AuditEntry{
		At: now, Kind: telemetry.AuditVerdict, Reason: reason,
		Host: -1, SrcLeaf: m.SrcLeaf, DstLeaf: dstLeaf, FromPath: path, ToPath: -1,
	})
	m.noteTransition(dstLeaf, path, timeseries.CauseVerdict, reason)
}

// noteTransition logs a characterization change on (dstLeaf, path), if any,
// with cause+reason as its cause (reason is empty except for verdicts, and
// joined only when a change is logged). Called at every intake site that can
// move the classification and by ScanTransitions.
func (m *Monitor) noteTransition(dstLeaf, path int, cause, reason string) {
	if m.Transitions == nil {
		return
	}
	t := m.Type(dstLeaf, path)
	last := &m.logged[dstLeaf*len(m.paths[dstLeaf])+path]
	if t == *last {
		return
	}
	from := *last
	*last = t
	m.Transitions.Add(timeseries.Transition{
		AtNs: int64(m.Net.Eng.Now()), Leaf: m.SrcLeaf, Dst: dstLeaf, Path: path,
		From: from.String(), To: t.String(), Cause: cause + reason,
	})
}

// ScanTransitions sweeps every tracked (dstLeaf, path) pair for
// characterization changes not driven by signal intake — in practice
// quarantine expiry, the only way a path's type moves between events. The
// flight recorder calls this once per sample instant.
func (m *Monitor) ScanTransitions(cause string) {
	if m.Transitions == nil {
		return
	}
	for d := range m.paths {
		if d == m.SrcLeaf {
			continue
		}
		for s := range m.paths[d] {
			m.noteTransition(d, s, cause, "")
		}
	}
}

// State returns the path state for direct inspection (tests, telemetry).
func (m *Monitor) State(dstLeaf, path int) *PathState { return m.paths[dstLeaf][path] }

// PathCensus classifies every (dstLeaf, path) pair this monitor tracks and
// returns the counts per verdict — the sweeper samples this into the
// good/gray/congested/failed time series.
func (m *Monitor) PathCensus() (good, gray, congested, failed int) {
	for d := range m.paths {
		if d == m.SrcLeaf {
			continue
		}
		for s := range m.paths[d] {
			switch m.Type(d, s) {
			case Good:
				good++
			case Gray:
				gray++
			case Congested:
				congested++
			case Failed:
				failed++
			}
		}
	}
	return
}

// classifyCongestion applies the congestion half of Algorithm 1.
func (m *Monitor) classifyCongestion(ps *PathState) PathType {
	rtt := sim.Time(ps.rtt)
	if ps.rttSamples == 0 {
		return Gray // nothing measured yet
	}
	ecn := ps.ecn
	if !m.P.UseECN {
		// RTT-only mode (§5.4 with plain TCP): treat RTT as the sole signal.
		switch {
		case rtt < m.P.TRTTLow:
			return Good
		case rtt > m.P.TRTTHigh:
			return Congested
		default:
			return Gray
		}
	}
	switch {
	case ecn < m.P.TECN && rtt < m.P.TRTTLow:
		return Good
	case ecn > m.P.TECN && rtt > m.P.TRTTHigh:
		return Congested
	default:
		return Gray
	}
}

// Type characterizes a (dstLeaf, path) pair per Algorithm 1.
func (m *Monitor) Type(dstLeaf, path int) PathType {
	ps := m.paths[dstLeaf][path]
	if m.Net.Eng.Now() < ps.failedUntil {
		return Failed
	}
	return m.classifyCongestion(ps)
}

// --- Data-plane signal intake -------------------------------------------

// OnSent records a data transmission on a path (denominator of the
// retransmission fraction, and the r_p estimator).
func (m *Monitor) OnSent(dstLeaf, path int, bytes int) {
	if !m.valid(dstLeaf, path) {
		return
	}
	ps := m.paths[dstLeaf][path]
	ps.winPkts++
	ps.dre.Add(bytes, m.Net.Eng.Now())
}

// OnDelivery records an ACK-derived sample: the echoed data packet's path,
// its CE mark and, when valid, its RTT.
func (m *Monitor) OnDelivery(dstLeaf, path int, ece bool, rtt sim.Time) {
	if !m.valid(dstLeaf, path) {
		return
	}
	ps := m.paths[dstLeaf][path]
	m.deliverSample(ps, ece, rtt)
	m.noteTransition(dstLeaf, path, timeseries.CauseAck, "")
}

// deliverSample folds one successful round-trip measurement into the path
// state (shared by ACK echoes and probe successes, which differ only in the
// transition cause they report).
func (m *Monitor) deliverSample(ps *PathState, ece bool, rtt sim.Time) {
	ps.consecProbeLoss = 0
	mark := 0.0
	if ece {
		mark = 1
	}
	ps.ecn = (1-m.P.ECNGain)*ps.ecn + m.P.ECNGain*mark
	ps.ecnSamples++
	if rtt > 0 {
		if ps.rttSamples == 0 {
			ps.rtt = float64(rtt)
		} else {
			ps.rtt = (1-m.P.RTTGain)*ps.rtt + m.P.RTTGain*float64(rtt)
		}
		ps.rttSamples++
	}
	ps.consecTimeouts = 0
}

// OnRetransmit records a loss event attributed to a path.
func (m *Monitor) OnRetransmit(dstLeaf, path int) {
	if !m.valid(dstLeaf, path) {
		return
	}
	m.paths[dstLeaf][path].winRetx++
}

// OnTimeout records an RTO on a path; after TimeoutsForBlackhole
// consecutive timeouts with no delivery the path is declared blackholed at
// rack scope. (Pair-granularity blackholes are additionally tracked per
// host in Hermes itself.)
func (m *Monitor) OnTimeout(dstLeaf, path int) {
	if !m.valid(dstLeaf, path) {
		return
	}
	ps := m.paths[dstLeaf][path]
	ps.consecTimeouts++
	if ps.consecTimeouts > m.P.TimeoutsForBlackhole {
		m.markFailed(dstLeaf, path, ps, telemetry.ReasonBlackhole, m.Net.Eng.Now())
		ps.consecTimeouts = 0
	}
}

// OnProbeResult feeds one probe measurement into the path state. Lost
// probes count as a retransmission-equivalent signal: deterministic or
// random drops hit probes exactly as they hit data.
func (m *Monitor) OnProbeResult(dstLeaf, path int, lost, ece bool, rtt sim.Time) {
	if !m.valid(dstLeaf, path) {
		return
	}
	ps := m.paths[dstLeaf][path]
	ps.winPkts++
	if lost {
		ps.winRetx++
		ps.consecProbeLoss++
		// A run of probe losses with no intervening delivery means the
		// path drops everything — the probe-based analogue of the
		// 3-timeouts blackhole rule (§3.1.2).
		if ps.consecProbeLoss >= ProbeLossesForFailure {
			m.markFailed(dstLeaf, path, ps, telemetry.ReasonProbeLoss, m.Net.Eng.Now())
		}
		return
	}
	m.deliverSample(ps, ece, rtt)
	m.noteTransition(dstLeaf, path, timeseries.CauseProbe, "")
}

// ProbeLossesForFailure is the consecutive-probe-loss count that declares a
// path failed when no data deliveries interleave.
const ProbeLossesForFailure = 5

func (m *Monitor) valid(dstLeaf, path int) bool {
	return dstLeaf >= 0 && dstLeaf < len(m.paths) && path >= 0 && path < len(m.paths[dstLeaf])
}
