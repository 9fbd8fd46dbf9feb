package hermes

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// wiring bundles the scheme-specific assembly steps of Run.
type wiring struct {
	balancerFor    func(h *net.Host) transport.Balancer
	afterTransport func(nw *net.Network, rng *sim.RNG)
	fillTelemetry  func(res *Result, eng *sim.Engine)

	// dumpState returns the scheme's checkpoint-visible control state (nil =
	// the scheme keeps no state beyond what the fabric and transport dumps
	// already cover). Everything returned must marshal deterministically.
	dumpState func() any
	// stop retires the scheme's periodic machinery (monitor windows, probe
	// loops) when a what-if fork replaces it mid-run. nil = nothing to stop.
	stop func()
}

const (
	report = telemetry.SinkReport
	flight = telemetry.SinkFlight
)

func noAfter(*net.Network, *sim.RNG)   {}
func noTelemetry(*Result, *sim.Engine) {}

// setCarriage sets how the transport carries each flow under cfg's scheme:
// MPTCP's subflow count (MPTCPSubflows, default 4) and RepFlow's
// replicate-below size (RepFlowThresholdBytes, default
// transport.DefaultRepFlowThreshold), each zero under every other scheme.
func setCarriage(o *transport.Options, cfg *Config) {
	o.Subflows, o.ReplicateBelow = 0, 0
	switch cfg.Scheme {
	case SchemeMPTCP:
		o.Subflows = cfg.MPTCPSubflows
		if o.Subflows <= 0 {
			o.Subflows = 4
		}
	case SchemeRepFlow:
		o.ReplicateBelow = cfg.RepFlowThresholdBytes
		if o.ReplicateBelow <= 0 {
			o.ReplicateBelow = transport.DefaultRepFlowThreshold
		}
	}
}

// buildScheme assembles cfg.Scheme on nw and declares its metrics on pl.
// audit, when non-nil, receives Hermes' decisions and verdicts.
func buildScheme(nw *net.Network, rng *sim.RNG, cfg Config, audit *telemetry.AuditLog, pl telemetry.Plane) *wiring {
	flowlet := sim.Time(cfg.FlowletTimeoutNs)
	if flowlet <= 0 {
		flowlet = 150 * sim.Microsecond
	}
	w := &wiring{afterTransport: noAfter, fillTelemetry: noTelemetry}
	switch cfg.Scheme {
	case SchemeECMP:
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeWCMP:
		e := &lb.WCMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemePresto:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true}
		}

	case SchemeDRB:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Spray{Net: nw, SchemeName: "DRB"}
		}

	case SchemeCLOVE:
		params := lb.DefaultCloveParams()
		params.FlowletTimeout = flowlet
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.Clove{Net: nw, Rng: rng, Params: params}
		}

	case SchemeFlowBender:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return lb.DefaultFlowBender(nw)
		}

	case SchemeLetFlow:
		for l := range nw.Leaves {
			lb.NewLetFlow(nw, l, rng, flowlet)
		}
		w.balancerFor = passThrough("LetFlow")

	case SchemeDRILL:
		for l := range nw.Leaves {
			lb.NewDRILL(nw, l, rng)
		}
		w.balancerFor = passThrough("DRILL")

	case SchemeEdgeFlowlet:
		w.balancerFor = func(*net.Host) transport.Balancer {
			return &lb.EdgeFlowlet{Net: nw, Rng: rng, Timeout: flowlet}
		}

	case SchemeHULA:
		p := lb.DefaultHulaParams()
		p.FlowletTimeout = flowlet
		lb.InstallHula(nw, rng, p)
		w.balancerFor = passThrough("HULA")

	case SchemeCONGA:
		p := lb.DefaultCongaParams()
		p.FlowletTimeout = flowlet
		lb.InstallConga(nw, rng, p)
		w.balancerFor = passThrough("CONGA")

	case SchemeMPTCP:
		// MPTCP subflows are hashed like ECMP flows and, like any ECMP flow,
		// pick their path once and are never rerouted — not even when the
		// path fails mid-flow (pinned by TestMPTCPSubflowsNeverRerouted); the
		// multipath behaviour lives in the transport (setCarriage sets its
		// Subflows; see internal/transport/logical.go).
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeREPS:
		return buildReps(nw, pl)

	case SchemeRepFlow:
		// Path selection is plain ECMP; the replication machinery lives in
		// the transport (setCarriage sets its ReplicateBelow; see
		// internal/transport/logical.go), which also declares its metrics.
		e := &lb.ECMP{Net: nw}
		w.balancerFor = func(*net.Host) transport.Balancer { return e }

	case SchemeHermes:
		return buildHermes(nw, rng, cfg, audit, pl)

	default:
		// validate admits only the schemes Schemes lists.
		panic(fmt.Sprintf("hermes: scheme %q has no wiring", cfg.Scheme))
	}
	return w
}

func passThrough(name string) func(*net.Host) transport.Balancer {
	return func(*net.Host) transport.Balancer { return &lb.PassThrough{Scheme: name} }
}

// repsHosts is every host's REPS balancer in host order (transport.New
// calls balancerFor in nw.Hosts order), so its sums are deterministic.
type repsHosts []*lb.Reps

// repsSum reads one counter summed over every host's balancer.
func repsSum(read func(*lb.Reps) uint64) func(*repsHosts) float64 {
	return func(rs *repsHosts) float64 {
		var n uint64
		for _, r := range *rs {
			n += read(r)
		}
		return float64(n)
	}
}

var (
	repsRecycled = repsSum(func(r *lb.Reps) uint64 { return r.RecycledSprays })
	repsFresh    = repsSum(func(r *lb.Reps) uint64 { return r.FreshSprays })
)

// repsMetrics declares the recycled-vs-fresh spray counters. Only REPS runs
// declare them, keeping every other scheme's report byte-stable.
var repsMetrics = []telemetry.Probe[*repsHosts]{
	{Metric: telemetry.Metric{Name: "reps.recycled_sprays_total", Sinks: report | flight}, Read: repsRecycled},
	{Metric: telemetry.Metric{Name: "reps.fresh_sprays_total", Sinks: report | flight}, Read: repsFresh},
	{Metric: telemetry.Metric{Name: "reps.evictions_total", Sinks: report | flight},
		Read: repsSum(func(r *lb.Reps) uint64 { return r.Evictions })},
	{Metric: telemetry.Metric{Name: "reps.cached_entropies", Sinks: report | flight},
		Read: repsSum(func(r *lb.Reps) uint64 { return uint64(r.CachedEntropies()) })},
	{Metric: telemetry.Metric{Name: "reps.cache_hit_rate", Sinks: report},
		Read: func(rs *repsHosts) float64 {
			rec, fr := repsRecycled(rs), repsFresh(rs)
			if rec+fr == 0 {
				return 0
			}
			return rec / (rec + fr)
		}},
}

// buildReps wires one REPS balancer per host.
func buildReps(nw *net.Network, pl telemetry.Plane) *wiring {
	var instances repsHosts
	w := &wiring{afterTransport: noAfter}
	w.balancerFor = func(h *net.Host) transport.Balancer {
		r := lb.NewReps(nw, 0)
		instances = append(instances, r)
		return r
	}
	telemetry.DeclareAll(pl, &instances, repsMetrics)
	w.fillTelemetry = func(res *Result, eng *sim.Engine) {
		for _, r := range instances {
			res.RecycledSprays += r.RecycledSprays
			res.FreshSprays += r.FreshSprays
			res.EntropyEvictions += r.Evictions
		}
	}
	w.dumpState = func() any {
		out := make([]*lb.RepsDump, len(instances))
		for i, r := range instances {
			out[i] = r.Dump()
		}
		return out
	}
	return w
}

func buildHermes(nw *net.Network, rng *sim.RNG, cfg Config, audit *telemetry.AuditLog, pl telemetry.Plane) *wiring {
	var params core.Params
	if cfg.HermesParams != nil {
		params = *cfg.HermesParams
	} else {
		params = core.DefaultParams(nw)
		if cfg.Protocol == "reno" || cfg.Protocol == "timely" {
			// §5.4: without DCTCP marking Hermes senses by RTT only and
			// relaxes the RTT thresholds by 1.5x (burstier, larger RTTs).
			params.UseECN = false
			params.TRTTHigh += params.TRTTHigh / 2
			params.DeltaRTT += params.DeltaRTT / 2
		}
	}

	st := &hermesState{monitors: make([]*core.Monitor, nw.Cfg.Leaves), instances: map[int]*core.Hermes{}}
	monitors, instances := st.monitors, st.instances
	for l := range monitors {
		monitors[l] = core.NewMonitor(nw, l, params)
		monitors[l].Audit = audit
	}

	w := &wiring{}
	w.balancerFor = func(h *net.Host) transport.Balancer {
		inst := core.New(monitors[h.Leaf], rng, h.ID)
		inst.Audit = audit
		instances[h.ID] = inst
		return inst
	}

	w.afterTransport = func(nw *net.Network, rng *sim.RNG) {
		if params.ProbeInterval <= 0 {
			return
		}
		core.InstallProbeResponders(nw)
		// One probe agent per rack: the first host under each leaf.
		agents := make([]*net.Host, nw.Cfg.Leaves)
		for l := range agents {
			agents[l] = nw.Hosts[l*nw.Cfg.HostsPerLeaf]
		}
		for l := range agents {
			st.probers = append(st.probers, core.NewProber(monitors[l], rng, agents))
		}
	}

	w.fillTelemetry = func(res *Result, eng *sim.Engine) {
		for _, inst := range instances {
			res.Reroutes += inst.Reroutes
			res.TimeoutReroutes += inst.TimeoutReroutes
			res.FailureReroutes += inst.FailureReroutes
		}
		for _, p := range st.probers {
			res.ProbesSent += p.ProbesSent
			res.ProbeBytes += p.ProbeBytes
		}
		if res.SimDuration > 0 && nw.Cfg.HostRateBps > 0 && len(st.probers) > 0 {
			// Overhead of one agent's probe traffic over its access link.
			perAgent := float64(res.ProbeBytes) / float64(len(st.probers))
			bps := perAgent * 8 * float64(sim.Second) / float64(res.SimDuration)
			res.ProbeOverhead = bps / float64(nw.Cfg.HostRateBps)
		}
	}
	w.dumpState = func() any {
		d := &hermesSchemeDump{}
		for _, m := range monitors {
			d.Monitors = append(d.Monitors, m.Dump())
		}
		for _, p := range st.probers {
			d.Probers = append(d.Probers, p.Dump())
		}
		hosts := make([]int, 0, len(instances))
		for h := range instances {
			hosts = append(hosts, h)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			inst := instances[h]
			d.Hosts = append(d.Hosts, hermesHostDump{
				Host: h, Reroutes: inst.Reroutes,
				TimeoutReroutes: inst.TimeoutReroutes,
				FailureReroutes: inst.FailureReroutes,
			})
		}
		return d
	}
	w.stop = func() {
		for _, p := range st.probers {
			p.Stop()
		}
		for _, m := range monitors {
			m.Stop()
		}
	}
	st.declare(pl)
	return w
}

// hermesSchemeDump is the Hermes control plane's checkpoint section: every
// rack monitor's sensing table, every prober's overhead state, and the
// per-host reroute counters in host order.
type hermesSchemeDump struct {
	Monitors []*core.MonitorDump `json:"monitors"`
	Probers  []*core.ProberDump  `json:"probers"`
	Hosts    []hermesHostDump    `json:"hosts"`
}

type hermesHostDump struct {
	Host            int    `json:"host"`
	Reroutes        uint64 `json:"reroutes"`
	TimeoutReroutes uint64 `json:"timeout_reroutes"`
	FailureReroutes uint64 `json:"failure_reroutes"`
}

// hermesState is the Hermes control plane as its metrics read it: the rack
// monitors by leaf, the per-host instances, and the rack probers. All sums
// are over integer counters, so map iteration order cannot perturb them.
type hermesState struct {
	monitors  []*core.Monitor
	instances map[int]*core.Hermes
	probers   []*core.Prober
}

// hostSum reads one counter summed over every Hermes instance.
func hostSum(read func(*core.Hermes) uint64) func(*hermesState) float64 {
	return func(st *hermesState) float64 {
		var n uint64
		for _, inst := range st.instances {
			n += read(inst)
		}
		return float64(n)
	}
}

// proberSum reads one counter summed over every rack prober.
func proberSum(read func(*core.Prober) uint64) func(*hermesState) float64 {
	return func(st *hermesState) float64 {
		var n uint64
		for _, p := range st.probers {
			n += read(p)
		}
		return float64(n)
	}
}

// hermesMetrics declares the Hermes counters. The cumulative reroute
// counters also feed the chaos recovery analysis from the flight ring (first
// post-onset increase of timeout+failure reroutes = time-to-reroute).
var hermesMetrics = []telemetry.Probe[*hermesState]{
	{Metric: telemetry.Metric{Name: "hermes.reroutes_total", Sinks: report | flight},
		Read: hostSum(func(h *core.Hermes) uint64 { return h.Reroutes })},
	{Metric: telemetry.Metric{Name: "hermes.timeout_reroutes_total", Sinks: report | flight},
		Read: hostSum(func(h *core.Hermes) uint64 { return h.TimeoutReroutes })},
	{Metric: telemetry.Metric{Name: "hermes.failure_reroutes_total", Sinks: report | flight},
		Read: hostSum(func(h *core.Hermes) uint64 { return h.FailureReroutes })},
	{Metric: telemetry.Metric{Name: "hermes.reroute.no_better_path", Sinks: report},
		Read: hostSum(func(h *core.Hermes) uint64 { return h.NoBetterPath })},
	{Metric: telemetry.Metric{Name: "hermes.reroute.caution_held", Sinks: report},
		Read: hostSum(func(h *core.Hermes) uint64 { return h.CautionHeld })},
	{Metric: telemetry.Metric{Name: "hermes.fail_marks_total", Sinks: report},
		Read: func(st *hermesState) float64 {
			var n uint64
			for _, m := range st.monitors {
				n += m.FailMarkEvents
			}
			return float64(n)
		}},
	{Metric: telemetry.Metric{Name: "hermes.probes_sent_total", Sinks: report},
		Read: proberSum(func(p *core.Prober) uint64 { return p.ProbesSent })},
	{Metric: telemetry.Metric{Name: "hermes.probes_lost_total", Sinks: report},
		Read: proberSum(func(p *core.Prober) uint64 { return p.ProbesLost })},
	{Metric: telemetry.Metric{Name: "hermes.probe_bytes_total", Sinks: report},
		Read: proberSum(func(p *core.Prober) uint64 { return p.ProbeBytes })},
}

// hermesCensus is Algorithm 1's path census: how many (dstLeaf, path)
// pairs a rack monitor classifies in each state. The report sums each state
// over every monitor; the flight ring keeps one series per leaf.
var hermesCensus = []struct {
	name string
	pick func(good, gray, congested, failed int) int
}{
	{"hermes.paths_good", func(g, _, _, _ int) int { return g }},
	{"hermes.paths_gray", func(_, g, _, _ int) int { return g }},
	{"hermes.paths_congested", func(_, _, c, _ int) int { return c }},
	{"hermes.paths_failed", func(_, _, _, f int) int { return f }},
}

// declare declares the Hermes metrics on pl. On the flight ring it also
// logs path-state transitions: monitor intake sites report them as they
// happen, and a per-sample scan catches the one change that happens between
// events, quarantine expiry, so a failed->gray flip is recorded within one
// sampling interval.
func (st *hermesState) declare(pl telemetry.Plane) {
	telemetry.DeclareAll(pl, st, hermesMetrics)
	if pl.Run != nil {
		for _, c := range hermesCensus {
			pick := c.pick
			pl.Declare(telemetry.Metric{Name: c.name, Sinks: report}, func() float64 {
				var n int
				for _, m := range st.monitors {
					n += pick(m.PathCensus())
				}
				return float64(n)
			})
		}
	}
	rec := pl.Flight
	if rec == nil {
		return
	}
	for l, m := range st.monitors {
		l, m := l, m
		for _, c := range hermesCensus {
			pick := c.pick
			pl.Declare(telemetry.Metric{Name: c.name, Sinks: flight},
				func() float64 { return float64(pick(m.PathCensus())) }, "leaf", strconv.Itoa(l))
		}
		m.Transitions = rec.Transitions
		rec.AtTick(func() { m.ScanTransitions(timeseries.CauseHoldExpired) })
	}
}
