// Command layers is the traced run of the bench workloads: it breaks each
// workload's cost down by layer. For the fig12 workloads it assembles the
// stack hermes.Run builds from the internal packages (stack.go) and times,
// from its own files, the calls into each layer: the scheduling slices of the
// event loop (sim, net and the transport receive/ACK path, which
// transport.New installs as host handlers and no outside span can separate),
// every flow start (transport), a decorator around every host's balancer (lb
// or core) and the engine's per-kind profile. blackhole-observed, whose
// observability wiring is the facade's own, is traced through hermes.Run with
// Config.Perf. soak-resume's traced and untraced operations are those of the
// run its checkpoint is taken from. Every workload then times the checkpoint
// package's round trip.
//
// Every traced operation must reproduce hermes.Run's digest exactly (the
// identity gate). Untraced hermes.Run operations of the same configuration,
// timed as the end-to-end runner times them, alternate with traced ones; the
// ratio of the two is the tracing overhead.
//
//	go run ./layers -seed 1 [-workload fig12-ecmp] [-spans spans.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/bench/suite"
	"github.com/hermes-repro/hermes/internal/checkpoint"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// minSamples is the fewest timed fires a share is printed from.
const minSamples = 10

// budgetTolerance is how far, as a share of run-loop wall time, the layers'
// self times may sum from it before the output names the gap.
const budgetTolerance = 15.0

// kinds are the engine event kinds reported one by one.
var kinds = []sim.Kind{
	sim.KindPortTx, sim.KindPropagate, sim.KindRTO, sim.KindTimer,
	sim.KindProbe, sim.KindArrival, sim.KindSample, sim.KindChaos,
}

func main() {
	spans := flag.String("spans", "", "write every span as JSON lines to this file")
	args, err := suite.ParseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
	clock := clockCost()
	t := &tracer{epoch: time.Now()}
	for _, w := range args.Workloads {
		rep, err := measure(w, args, t, clock)
		if err != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if err := rep.Print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
	}
	if *spans != "" {
		if err := t.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			os.Exit(1)
		}
	}
}

// measure alternates untraced and traced operations of one workload for the
// run length, then measures its checkpoint round trip.
func measure(w suite.Workload, a suite.Args, t *tracer, clock float64) (*suite.Report, error) {
	p, err := suite.Prepare(w, a.Seed, a.Flows, a.Dir)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	rep := &suite.Report{Workload: w.Name}
	rep.Note("clock read costs %.1f ns; subtracted from every sampled time", clock)

	var traced []*sample
	var walls, tracedWalls, nsPerEvent, alloc, mallocs, gcs []float64
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < a.Seconds; n++ {
		rep.Attempted++
		if n%2 == 0 {
			op := suite.RunTimed(p.Run)
			if err := p.Check(op.Res, op.Err); err != nil {
				rep.Fail(fmt.Sprintf("untraced operation %d", n/2+1), err)
				continue
			}
			walls = append(walls, op.Wall.Seconds())
			nsPerEvent = append(nsPerEvent, float64(op.Wall.Nanoseconds())/float64(op.Res.Events))
			alloc = append(alloc, float64(op.Alloc)/1e6)
			mallocs = append(mallocs, float64(op.Mallocs)/float64(p.Flows))
			gcs = append(gcs, float64(op.GCs))
			continue
		}
		s, err := traceOp(p, t)
		if err != nil {
			rep.Fail(fmt.Sprintf("traced operation %d", n/2+1), err)
			continue
		}
		traced = append(traced, s)
		tracedWalls = append(tracedWalls, s.wall.Seconds())
		rep.Note("budget, traced operation %d: %s", len(traced), s.budget(clock))
	}

	// Per-layer values: the median over traced operations (counts repeat
	// exactly), with the notes of the last one.
	per := map[string][]float64{}
	last := (&sample{}).values(clock)
	for _, s := range traced {
		last = s.values(clock)
		for _, v := range last {
			per[v.name] = append(per[v.name], v.v)
		}
	}
	for _, v := range last {
		rep.Add(v.name, v.unit, suite.Median(per[v.name]), v.note)
	}

	untraced := fmt.Sprintf("median of %d untraced operations", len(walls))
	rep.Add("sim.ns_per_event", "ns", suite.Median(nsPerEvent), untraced)
	rep.Add("runtime.alloc_mb", "MB", suite.Median(alloc), untraced)
	rep.Add("runtime.mallocs_per_flow", "count", suite.Median(mallocs), untraced)
	rep.Add("runtime.gc_cycles", "count", suite.Median(gcs), untraced)

	tw, uw := suite.Median(tracedWalls), suite.Median(walls)
	overhead := ratio(tw, uw)*100 - 100
	rep.Add("trace.overhead", "%", overhead, fmt.Sprintf("traced over untraced run_s, %d and %d operations", len(tracedWalls), len(walls)))
	rep.Note("tracing overhead: traced run_s %.3f s / untraced run_s %.3f s - 1 = %+.1f%%", tw, uw, overhead)

	ck := checkpointLayer(p, rep)
	rep.Add("checkpoint.bytes", "B", float64(ck.bytes), "")
	rep.Add("checkpoint.read_s", "s", ck.read.Seconds(), "checkpoint.ReadFile + DecodeState")
	rep.Add("checkpoint.resume_ratio", "ratio", ratio(ck.resume.Seconds(), ck.run.Seconds()),
		fmt.Sprintf("hermes.Restore %.3f s over the checkpointing run %.3f s", ck.resume.Seconds(), ck.run.Seconds()))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// sample is what one traced operation measured.
type sample struct {
	// facade marks an operation traced through hermes.Run: loop is then the
	// profiled run's wall time, and the balancer, flow-start, packet and
	// drop metrics are not measured.
	facade bool

	wall, loop, start time.Duration // the run span, its slices, its flow starts
	flows             int

	events    uint64
	queuePeak int
	count     [sim.NumKinds]uint64
	timedNs   [sim.NumKinds]int64
	timed     [sim.NumKinds]uint64

	packets, drops        uint64
	retransmits, timeouts uint64
	probes, reroutes      uint64
	episodes              int
	bal                   balancerStats
}

// traceOp runs one traced operation of the workload.
func traceOp(p *suite.Plan, t *tracer) (*sample, error) {
	t.op++
	if p.W.Observed {
		return traceFacade(p, t)
	}
	return traceStack(p, t)
}

// traceFacade runs the workload through hermes.Run with the engine profile
// on and reads the layers' counts from its Result.
func traceFacade(p *suite.Plan, t *tracer) (*sample, error) {
	cfg := p.Base
	cfg.Perf = &hermes.PerfOptions{SampleEvery: profileEvery}
	var res *hermes.Result
	var err error
	runtime.GC()
	wall := t.do("run", func() { res, err = hermes.Run(cfg) })
	if err := p.Check(res, err); err != nil {
		return nil, err
	}
	pr := res.Perf
	smp := &sample{facade: true, wall: wall, loop: time.Duration(pr.WallNs),
		events: pr.EventsTotal, queuePeak: pr.QueuePeak,
		probes: res.ProbesSent, reroutes: res.Reroutes}
	for _, ks := range pr.ByKind {
		for k := sim.Kind(0); int(k) < sim.NumKinds; k++ {
			if k.String() == ks.Kind {
				smp.count[k], smp.timedNs[k], smp.timed[k] = ks.Count, ks.SampledNs, ks.SampledFires
			}
		}
	}
	// The observed run's flight recorder holds the end-of-run totals.
	latest := func(series string) uint64 {
		v, _ := res.TimeSeries.LatestValue(series)
		return uint64(v)
	}
	smp.retransmits = latest("transport.retransmits_total")
	smp.timeouts = latest("transport.timeouts_total")
	if res.Alerts != nil {
		smp.episodes = len(res.Alerts.Alerts)
	}
	return smp, nil
}

// traceStack runs the workload's assembled stack once with every timing
// point installed and checks its outputs against hermes.Run's.
func traceStack(p *suite.Plan, t *tracer) (*sample, error) {
	bal := &balancerStats{}
	h := hooks{
		balancer: func(b transport.Balancer) transport.Balancer { return &timedBalancer{Balancer: b, st: bal} },
		startFlow: func(start func()) {
			bal.inStart = true
			t.do("start_flow", start)
			bal.inStart = false
		},
		slice: func(run func()) { t.do("slice", run) },
	}
	var s *stack
	var out *outcome
	var err error
	runtime.GC()
	wall := t.do("run", func() {
		t.do("setup", func() { s, err = build(p.Base, h) })
		if err != nil {
			return
		}
		s.loop(h)
		t.do("finish", func() { out = s.finish() })
	})
	if err != nil {
		return nil, err
	}
	d, err := suite.Digest(out.Events, out.SimNs, out.FCT, out.GoodputGbps)
	if err != nil {
		return nil, err
	}
	if err := p.CheckDigest(d); err != nil {
		return nil, fmt.Errorf("identity gate: the assembled stack does not reproduce hermes.Run: %w", err)
	}

	smp := &sample{wall: wall, events: out.Events, queuePeak: s.prof.QueuePeak(), bal: *bal,
		retransmits: s.tr.Retransmits, timeouts: s.tr.Timeouts}
	smp.loop, _ = t.total("slice")
	smp.start, smp.flows = t.total("start_flow")
	for k := sim.Kind(0); int(k) < sim.NumKinds; k++ {
		smp.count[k], smp.timedNs[k], smp.timed[k] = s.prof.Count(k), s.prof.SampledNs(k), s.prof.SampledFires(k)
	}
	ps := s.nw.PacketStats()
	smp.packets, smp.drops = ps.Injected, ps.PortDrops+ps.SwitchDrops
	for _, pr := range s.probers {
		smp.probes += pr.ProbesSent
	}
	for _, inst := range s.hermes {
		smp.reroutes += inst.Reroutes
	}
	return smp, nil
}

// value is one per-layer metric of one traced operation.
type value struct {
	name, unit string
	v          float64
	note       string
}

// selfTimes estimates the layers' self times inside the run loop: the
// balancer (sampled calls scaled to all calls), flow starts without the
// balancer calls inside them, and all event callbacks, per kind and in
// total, from the engine profile's sampled fires. What the callbacks leave
// of the run loop is dispatch in sim.Engine.Run, plus sampling error.
func (s *sample) selfTimes(clock float64) (balancer, start, callbacks float64, kindNs [sim.NumKinds]float64) {
	for k := range s.count {
		if s.timed[k] > 0 {
			perFire := (float64(s.timedNs[k]) - clock*float64(s.timed[k])) / float64(s.timed[k])
			kindNs[k] = perFire * float64(s.count[k])
			callbacks += kindNs[k]
		}
	}
	balancer = s.bal.selfNs(clock)
	start = float64(s.start) - s.bal.nestedSelfNs(clock)
	return balancer, start, callbacks, kindNs
}

// budget reconciles the layers' self times with the run-loop wall time.
func (s *sample) budget(clock float64) string {
	bal, start, sum, _ := s.selfTimes(clock)
	loop := float64(s.loop)
	rest := sum - bal - start
	line := fmt.Sprintf("balancer %.1f%% + transport flow starts %.1f%% + other event callbacks %.1f%% = %.1f%% of run-loop wall %.3f s",
		ratio(bal, loop)*100, ratio(start, loop)*100, ratio(rest, loop)*100, ratio(sum, loop)*100, loop/1e9)
	if s.facade {
		line = fmt.Sprintf("event callbacks %.1f%% of the profiled run's wall %.3f s (traced through the facade: balancer and flow starts are not separated)",
			ratio(sum, loop)*100, loop/1e9)
	}
	if gap := 100 - ratio(sum, loop)*100; gap > budgetTolerance || gap < -budgetTolerance {
		line += fmt.Sprintf("; GAP %.1f%% (%.3f s) outside ±%.0f%%: sim.Engine.Run's own dispatch outside event callbacks (event-queue pop), reported as sim.dispatch_ns",
			gap, (loop-sum)/1e9, budgetTolerance)
	}
	return line
}

func (s *sample) values(clock float64) []value {
	var vs []value
	add := func(name, unit string, v float64, note string) {
		vs = append(vs, value{name, unit, v, note})
	}
	// stackOnly adds a metric only the assembled stack measures.
	stackOnly := func(name, unit string, v float64, note string) {
		if s.facade {
			v, note = 0, "not measured: traced through the facade"
		}
		add(name, unit, v, note)
	}
	bal, start, callbacks, kindNs := s.selfTimes(clock)
	loop := float64(s.loop)

	add("sim.events", "count", float64(s.events), "")
	add("sim.queue_peak", "count", float64(s.queuePeak), "pending events at the heap's high-water mark")
	for _, k := range kinds {
		add("sim.events."+k.String(), "count", float64(s.count[k]), "")
	}
	for _, k := range kinds {
		share, note := 0.0, fmt.Sprintf("of event-callback time, n=%d timed fires", s.timed[k])
		if s.timed[k] >= minSamples {
			share = ratio(kindNs[k], callbacks) * 100
		} else {
			note += fmt.Sprintf(", suppressed below %d", minSamples)
		}
		add("sim.share."+k.String(), "%", share, note)
	}
	stackOnly("fabric.self_ns_per_packet", "ns", ratio(loop-bal-start, float64(s.packets)),
		fmt.Sprintf("run loop less balancer and flow starts, over %d packets", s.packets))
	stackOnly("net.packets", "count", float64(s.packets), "")
	stackOnly("net.drops", "count", float64(s.drops), "")
	stackOnly("transport.start_flow_ns", "ns", ratio(start, float64(s.flows)),
		fmt.Sprintf("n=%d flow-start spans, balancer calls inside removed", s.flows))
	add("transport.retransmits", "count", float64(s.retransmits), "")
	add("transport.timeouts", "count", float64(s.timeouts), "")
	for _, c := range []struct {
		name string
		st   callStat
	}{{"select_path", s.bal.selectPath}, {"on_ack", s.bal.onAck}, {"on_sent", s.bal.onSent}} {
		stackOnly("balancer."+c.name+"_ns", "ns", c.st.perCall(clock),
			fmt.Sprintf("n=%d timed of %d calls", c.st.timed, c.st.calls))
	}
	stackOnly("balancer.calls", "count", float64(s.bal.calls()), "")
	stackOnly("balancer.share", "%", ratio(bal, loop)*100, "of run-loop wall time")
	add("core.probes", "count", float64(s.probes), "")
	add("core.reroutes", "count", float64(s.reroutes), "")
	add("alert.episodes", "count", float64(s.episodes), "")
	dispatch := "run-loop wall outside event callbacks, per event: the engine's own pop and dispatch"
	if s.facade {
		dispatch = "profiled run wall outside event callbacks, per event: the engine's dispatch plus set-up and finish"
	}
	add("sim.dispatch_ns", "ns", ratio(loop-callbacks, float64(s.events)), dispatch)
	return vs
}

// ckResult is the checkpoint layer's measurements.
type ckResult struct {
	bytes  int
	read   time.Duration
	run    time.Duration // the run that wrote the checkpoint
	resume time.Duration // hermes.Restore of it, to completion
}

// checkpointLayer measures the checkpoint round trip of the workload's run:
// the run that writes a checkpoint at suite.CheckpointAt (soak-resume's was
// written at set-up), reading and decoding the file, and restoring it.
func checkpointLayer(p *suite.Plan, rep *suite.Report) ckResult {
	rep.Attempted++
	info, run, err := p.Checkpointed()
	if err != nil {
		rep.Fail("checkpointing run", err)
		return ckResult{}
	}
	ck := ckResult{bytes: info.Bytes, run: run}
	rep.Attempted++
	start := time.Now()
	f, err := checkpoint.ReadFile(info.Path)
	if err == nil {
		_, err = f.DecodeState()
	}
	ck.read = time.Since(start)
	if err != nil {
		rep.Fail("checkpoint read", err)
	}
	rep.Attempted++
	start = time.Now()
	res, err := hermes.Restore(info.Path)
	ck.resume = time.Since(start)
	if err := p.Check(res, err); err != nil {
		rep.Fail("restore", err)
	}
	return ck
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
