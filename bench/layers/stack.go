package main

import (
	"fmt"
	"sort"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/bench/suite"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
	"github.com/hermes-repro/hermes/internal/workload"
)

const (
	// profileEvery is the engine profile's wall-time sampling stride.
	profileEvery = 8
	// drainNs is the facade's drain deadline after the last arrival.
	drainNs = 2 * sim.Second
)

// hooks are the timing points a traced build installs; nil fields leave the
// stack untimed.
type hooks struct {
	// balancer wraps each host's balancer.
	balancer func(transport.Balancer) transport.Balancer
	// startFlow runs each flow start.
	startFlow func(start func())
	// slice runs each scheduling slice of the run loop.
	slice func(run func())
}

// stack is the simulation hermes.Run builds for the fig12 workloads,
// assembled here from the internal packages in the facade's order so that
// calls into each layer can be timed from outside. The identity gate
// (outputs equal to hermes.Run's) keeps this copy of the facade's wiring
// honest.
type stack struct {
	cfg  hermes.Config
	eng  *sim.Engine
	prof *sim.Profile
	nw   *net.Network
	tr   *transport.Transport
	gen  *workload.Generator
	rec  *metrics.FCTRecorder

	hermes  []*core.Hermes
	probers []*core.Prober

	delivered   int64
	lastArrival sim.Time
}

// outcome is what a stack run reproduces of hermes.Result.
type outcome struct {
	Events      uint64
	SimNs       int64
	FCT         metrics.Report
	GoodputGbps float64
}

// build assembles the stack for cfg. It supports the fig12 configurations
// and refuses anything else: runs with a scenario or alerts are traced
// through the facade instead.
func build(cfg hermes.Config, h hooks) (*stack, error) {
	switch {
	case cfg.Scheme != hermes.SchemeECMP && cfg.Scheme != hermes.SchemeHermes:
		return nil, fmt.Errorf("layers: scheme %q not supported", cfg.Scheme)
	case cfg.Workload != "web-search" || cfg.WorkloadFile != "" || cfg.MaxFlowBytes != 0:
		return nil, fmt.Errorf("layers: only the untruncated web-search workload is supported")
	case cfg.Failure.Kind != hermes.FailureNone || cfg.Scenario != nil || cfg.Alerts != nil ||
		cfg.Checkpoint != nil || cfg.Protocol != "" || cfg.HermesParams != nil ||
		cfg.TimeSeries || cfg.TimeSeriesIntervalNs != 0 || cfg.Telemetry ||
		cfg.Trace || cfg.Checks || cfg.MeasureVisibility || cfg.ReorderTimeoutNs != 0:
		return nil, fmt.Errorf("layers: config sets a field the assembled stack does not wire")
	}
	dist, err := workload.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, eng: sim.NewEngine()}
	s.prof = s.eng.EnableProfile(profileEvery)
	rng := sim.NewRNG(cfg.Seed)
	t := cfg.Topology
	s.nw, err = net.NewLeafSpine(s.eng, rng, net.Config{
		Leaves: t.Leaves, Spines: t.Spines, HostsPerLeaf: t.HostsPerLeaf,
		HostRateBps: t.HostRateBps, FabricRateBps: t.FabricRateBps,
		HostDelay: t.HostDelayNs, FabricDelay: t.FabricDelayNs,
		QueueFactor: t.QueueFactor, CablesPerLink: t.CablesPerLink,
	})
	if err != nil {
		return nil, err
	}
	nw := s.nw
	baseBisection := nw.BisectionBps()

	var balFor func(*net.Host) transport.Balancer
	after := func() {}
	if cfg.Scheme == hermes.SchemeECMP {
		e := &lb.ECMP{Net: nw}
		balFor = func(*net.Host) transport.Balancer { return e }
	} else {
		balFor, after = s.buildHermes(rng)
	}
	if h.balancer != nil {
		inner := balFor
		balFor = func(host *net.Host) transport.Balancer { return h.balancer(inner(host)) }
	}
	s.tr = transport.New(nw, transport.DefaultOptions(), balFor)
	after()

	s.rec = &metrics.FCTRecorder{}
	baseRTT, hostRate := nw.ApproxBaseRTT(), nw.Cfg.HostRateBps
	s.rec.IdealFCT = func(size int64) sim.Time {
		return baseRTT + sim.Time(size*8*sim.Second/hostRate)
	}
	s.tr.OnFlowDone = func(f *transport.Flow) {
		s.delivered += f.Size
		s.rec.Record(f.Size, f.FCT())
	}
	s.gen = &workload.Generator{
		Net: nw, Tr: s.tr, Rng: rng, Dist: dist,
		Load: cfg.Load, MaxFlows: cfg.Flows,
		BaseBisectionBps: baseBisection,
	}
	if h.startFlow != nil {
		s.gen.StartFlowFn = func(src, dst int, size int64) {
			h.startFlow(func() { s.tr.StartFlow(src, dst, size) })
		}
	}
	s.gen.Start()
	return s, nil
}

// buildHermes wires one monitor per leaf, a Hermes instance per host and
// one prober per rack, as the facade does.
func (s *stack) buildHermes(rng *sim.RNG) (func(*net.Host) transport.Balancer, func()) {
	nw := s.nw
	params := core.DefaultParams(nw)
	monitors := make([]*core.Monitor, nw.Cfg.Leaves)
	for l := range monitors {
		monitors[l] = core.NewMonitor(nw, l, params)
	}
	balFor := func(h *net.Host) transport.Balancer {
		inst := core.New(monitors[h.Leaf], rng, h.ID)
		s.hermes = append(s.hermes, inst)
		return inst
	}
	after := func() {
		if params.ProbeInterval <= 0 {
			return
		}
		core.InstallProbeResponders(nw)
		agents := make([]*net.Host, nw.Cfg.Leaves)
		for l := range agents {
			agents[l] = nw.Hosts[l*nw.Cfg.HostsPerLeaf]
		}
		for l := range agents {
			s.probers = append(s.probers, core.NewProber(monitors[l], rng, agents))
		}
	}
	return balFor, after
}

// loop drives the simulation in the facade's 10 ms slices until every flow
// has finished or the drain deadline after the last arrival has passed.
func (s *stack) loop(h hooks) {
	eng, gen, tr := s.eng, s.gen, s.tr
	drain := s.cfg.DrainTimeoutNs
	if drain <= 0 {
		drain = drainNs
	}
	for {
		if gen.Started() >= s.cfg.Flows && s.lastArrival == 0 {
			s.lastArrival = eng.Now()
		}
		if gen.Started() >= s.cfg.Flows && (tr.ActiveCount() == 0 || eng.Now() > s.lastArrival+drain) {
			break
		}
		if eng.Pending() == 0 && eng.Now() > 0 {
			break
		}
		horizon := eng.Now() + sim.Time(suite.SliceNs)
		if h.slice != nil {
			h.slice(func() { eng.Run(horizon) })
		} else {
			eng.Run(horizon)
		}
	}
}

// finish assembles the outcome as the facade assembles its Result.
func (s *stack) finish() *outcome {
	now := s.eng.Now()
	leftovers := make([]*transport.Flow, 0, s.tr.ActiveCount())
	for _, f := range s.tr.ActiveFlows() {
		if !f.Hidden {
			leftovers = append(leftovers, f)
		}
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].ID < leftovers[j].ID })
	for _, f := range leftovers {
		s.rec.RecordUnfinished(f.Size, now-f.StartAt)
	}
	o := &outcome{Events: s.eng.Fired(), SimNs: int64(now), FCT: s.rec.Report()}
	if now > 0 {
		o.GoodputGbps = float64(s.delivered) * 8 / float64(now)
	}
	return o
}
