package core

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Hermes is the per-host (hypervisor) balancer instance. Hosts under the
// same leaf share one Monitor — the rack-level sensing pool fed by probes
// and by every local flow's transport signals — while blackhole suspicion is
// tracked per destination host, since blackholes match specific
// source-destination pairs (§3.1.2).
type Hermes struct {
	transport.BaseBalancer
	Mon  *Monitor
	Rng  *sim.RNG
	Host int

	pairFail    map[pairKey]*pairState
	lastReroute map[uint64]sim.Time

	// Telemetry.
	Reroutes        uint64
	TimeoutReroutes uint64
	FailureReroutes uint64
	// NoBetterPath counts congestion episodes where every alternative
	// failed the "notably better" margins — the cautious design refusing a
	// blind move (the congestion-mismatch detector). CautionHeld counts
	// decisions suppressed by the sent-bytes/rate/cooldown gates.
	NoBetterPath uint64
	CautionHeld  uint64

	// Audit, when non-nil, receives one entry per placement and reroute
	// decision — the queryable record of Algorithm 2's verdicts.
	Audit *telemetry.AuditLog
}

type pairKey struct {
	dst  int
	path int
}

type pairState struct {
	consecTimeouts int
	failedUntil    sim.Time
}

// New builds the per-host instance over a shared rack monitor.
func New(mon *Monitor, rng *sim.RNG, host int) *Hermes {
	return &Hermes{
		Mon: mon, Rng: rng, Host: host,
		pairFail:    map[pairKey]*pairState{},
		lastReroute: map[uint64]sim.Time{},
	}
}

// Name implements transport.Balancer.
func (h *Hermes) Name() string { return "Hermes" }

// audit records one decision entry (no-op when auditing is off).
func (h *Hermes) audit(at sim.Time, kind telemetry.AuditKind, reason string, f *transport.Flow, from, to int) {
	h.Audit.Add(telemetry.AuditEntry{
		At: at, Kind: kind, Reason: reason,
		Host: h.Host, Flow: f.ID, SrcLeaf: f.SrcLeaf, DstLeaf: f.DstLeaf,
		FromPath: from, ToPath: to,
	})
}

func (h *Hermes) pathFailed(f *transport.Flow, p int) bool {
	if h.Mon.Type(f.DstLeaf, p) == Failed {
		return true
	}
	if s := h.pairFail[pairKey{f.Dst, p}]; s != nil && h.Mon.Net.Eng.Now() < s.failedUntil {
		return true
	}
	return false
}

// SelectPath implements Algorithm 2 ("Timely yet Cautious Rerouting"): it
// runs for every data packet.
func (h *Hermes) SelectPath(f *transport.Flow) int {
	if f.SrcLeaf == f.DstLeaf {
		return net.PathAny
	}
	m := h.Mon
	now := m.Net.Eng.Now()
	paths := m.Net.AvailablePaths(f.SrcLeaf, f.DstLeaf)
	if len(paths) == 0 {
		return net.PathAny
	}

	cur := f.CurPath
	needFresh := !f.Started() || f.TimedOut || cur < 0 || h.pathFailed(f, cur)
	if needFresh {
		// Lines 3-12: new flow, timeout, or failed path: place on the good
		// path with the least local sending rate, falling back to gray,
		// then to any non-failed path.
		reason := telemetry.ReasonFresh
		if f.Started() {
			if f.TimedOut {
				h.TimeoutReroutes++
				reason = telemetry.ReasonTimeout
			} else {
				h.FailureReroutes++
				reason = telemetry.ReasonFailure
			}
		}
		f.TimedOut = false
		p := h.placeFresh(f, paths, now)
		h.audit(now, telemetry.AuditPlace, reason, f, cur, p)
		return p
	}

	if m.P.Vigorous {
		// Ablation: always jump to the best-looking path instantly.
		return h.vigorousBest(f, paths, now, cur)
	}

	if m.P.DisableReroute {
		return cur
	}

	// Lines 13-23: congestion-triggered cautious rerouting.
	if m.Type(f.DstLeaf, cur) != Congested {
		return cur
	}
	if f.SentBytes() <= m.P.SBytes || f.RateBps(now) >= m.P.RBps {
		h.CautionHeld++
		return cur // caution gates: too little sent, or already fast
	}
	if last, ok := h.lastReroute[f.ID]; ok && now-last < m.P.RerouteCooldown {
		h.CautionHeld++
		return cur // signals from the previous move have not converged yet
	}
	curPS := m.State(f.DstLeaf, cur)
	pick := h.bestNotablyBetter(f, paths, now, curPS, Good)
	if pick < 0 {
		pick = h.bestNotablyBetter(f, paths, now, curPS, Gray)
	}
	if pick >= 0 && pick != cur {
		h.Reroutes++
		h.lastReroute[f.ID] = now
		h.audit(now, telemetry.AuditReroute, telemetry.ReasonCongestion, f, cur, pick)
		return pick
	}
	// The current path is congested but nothing clears the notably-better
	// margins: moving would risk the congestion mismatch of §2.2, so stay.
	h.NoBetterPath++
	return cur
}

// placeFresh picks the initial (or post-failure) path: least-loaded good,
// else least-loaded gray, else random non-failed, else random.
func (h *Hermes) placeFresh(f *transport.Flow, paths []int, now sim.Time) int {
	if p := h.leastLoaded(f, paths, now, Good); p >= 0 {
		return p
	}
	if p := h.leastLoaded(f, paths, now, Gray); p >= 0 {
		return p
	}
	var live []int
	for _, p := range paths {
		if !h.pathFailed(f, p) {
			live = append(live, p)
		}
	}
	if len(live) > 0 {
		return h.capacityWeighted(f, live)
	}
	return h.capacityWeighted(f, paths)
}

// capacityWeighted picks a path with probability proportional to its
// bottleneck capacity. The paper's XPath path set enumerates physical
// cables, so its uniform random fallback (Algorithm 2 line 12) is already
// capacity-proportional; this model folds parallel cables into one link of
// the summed rate, and weighting restores the same behaviour.
func (h *Hermes) capacityWeighted(f *transport.Flow, paths []int) int {
	var total int64
	for _, p := range paths {
		total += h.Mon.Net.PathCapacityBps(f.SrcLeaf, f.DstLeaf, p)
	}
	if total <= 0 {
		return paths[h.Rng.Intn(len(paths))]
	}
	u := h.Rng.Int63() % total
	for _, p := range paths {
		u -= h.Mon.Net.PathCapacityBps(f.SrcLeaf, f.DstLeaf, p)
		if u < 0 {
			return p
		}
	}
	return paths[len(paths)-1]
}

// localLoad is the placement metric: the aggregate local sending rate r_p
// normalized by the path's bottleneck capacity. Normalization matters on
// asymmetric fabrics — a 2 Gbps path with little local traffic is not
// "emptier" than a 10 Gbps path carrying twice the bytes.
func (h *Hermes) localLoad(f *transport.Flow, p int, now sim.Time) float64 {
	capBps := h.Mon.Net.PathCapacityBps(f.SrcLeaf, f.DstLeaf, p)
	if capBps <= 0 {
		return 1e18
	}
	return h.Mon.State(f.DstLeaf, p).RateBps(now) / float64(capBps)
}

// leastLoaded returns the path of the wanted type with the smallest
// normalized local sending rate, or -1 if none match.
func (h *Hermes) leastLoaded(f *transport.Flow, paths []int, now sim.Time, want PathType) int {
	best := -1
	var bestRate float64
	for _, p := range paths {
		if h.pathFailed(f, p) || h.Mon.Type(f.DstLeaf, p) != want {
			continue
		}
		r := h.localLoad(f, p, now)
		if best < 0 || r < bestRate {
			best, bestRate = p, r
		}
	}
	return best
}

// bestNotablyBetter returns the least-loaded path of the wanted type that
// beats the current path by both margins (Delta_RTT and Delta_ECN), or -1.
func (h *Hermes) bestNotablyBetter(f *transport.Flow, paths []int, now sim.Time, cur *PathState, want PathType) int {
	m := h.Mon
	best := -1
	var bestRate float64
	for _, p := range paths {
		if h.pathFailed(f, p) || m.Type(f.DstLeaf, p) != want {
			continue
		}
		ps := m.State(f.DstLeaf, p)
		if cur.RTT()-ps.RTT() <= m.P.DeltaRTT {
			continue
		}
		if m.P.UseECN && cur.ECNFraction()-ps.ECNFraction() <= m.P.DeltaECN {
			continue
		}
		r := h.localLoad(f, p, now)
		if best < 0 || r < bestRate {
			best, bestRate = p, r
		}
	}
	return best
}

// vigorousBest implements the no-caution ablation: the path with the lowest
// smoothed RTT wins every packet.
func (h *Hermes) vigorousBest(f *transport.Flow, paths []int, now sim.Time, cur int) int {
	m := h.Mon
	best, bestRTT := cur, sim.Time(1<<62)
	if cur >= 0 && !h.pathFailed(f, cur) {
		bestRTT = m.State(f.DstLeaf, cur).RTT()
	}
	for _, p := range paths {
		if h.pathFailed(f, p) {
			continue
		}
		if rtt := m.State(f.DstLeaf, p).RTT(); rtt < bestRTT {
			best, bestRTT = p, rtt
		}
	}
	if best != cur {
		h.Reroutes++
	}
	_ = now
	return best
}

// --- Transport signal plumbing ------------------------------------------

// OnSent implements transport.Balancer.
func (h *Hermes) OnSent(f *transport.Flow, path int, bytes int) {
	h.Mon.OnSent(f.DstLeaf, path, bytes)
}

// OnAck implements transport.Balancer.
func (h *Hermes) OnAck(f *transport.Flow, ev transport.AckEvent) {
	h.Mon.OnDelivery(f.DstLeaf, ev.Path, ev.ECE, ev.RTT)
	if s := h.pairFail[pairKey{f.Dst, ev.Path}]; s != nil {
		s.consecTimeouts = 0
	}
}

// OnRetransmit implements transport.Balancer.
func (h *Hermes) OnRetransmit(f *transport.Flow, path int) {
	h.Mon.OnRetransmit(f.DstLeaf, path)
}

// OnFlowDone implements transport.Balancer.
func (h *Hermes) OnFlowDone(f *transport.Flow) {
	delete(h.lastReroute, f.ID)
}

// OnTimeout implements transport.Balancer: feeds both the rack-level
// monitor and the per-pair blackhole detector.
func (h *Hermes) OnTimeout(f *transport.Flow, path int) {
	if path < 0 {
		return
	}
	h.Mon.OnTimeout(f.DstLeaf, path)
	k := pairKey{f.Dst, path}
	s := h.pairFail[k]
	if s == nil {
		s = &pairState{}
		h.pairFail[k] = s
	}
	s.consecTimeouts++
	if s.consecTimeouts >= h.Mon.P.TimeoutsForBlackhole {
		// Quarantine rather than permanently condemn: a true blackhole
		// re-triggers within ~3 RTOs of the hold expiring, while a pair
		// that merely suffered congestion timeouts recovers. Permanent
		// verdicts cascade under extreme load (pair-paths vanish, load
		// concentrates, more timeouts follow).
		s.failedUntil = h.Mon.Net.Eng.Now() + h.Mon.P.FailedHold
		s.consecTimeouts = 0
	}
}
