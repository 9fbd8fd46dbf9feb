package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/cmd/internal/cli"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/workload"
)

// simTopo returns the large-simulation fabric: the paper's 8x8x16 when
// -full, a proportionally reduced 4x4x8 otherwise.
func simTopo(o options) hermes.Topology {
	if o.full {
		return hermes.LargeScaleTopology()
	}
	return hermes.SmallTopology()
}

// Telemetry capture: runAll is the single chokepoint every experiment's
// runs flow through, so enabling telemetry here covers the whole evaluation.
var (
	telemetryOn   bool
	perfRunsOn    bool
	reportDir     string
	auditDir      string
	traceDir      string
	timeseriesDir string
	artifactSeq   int
)

// runAll runs cfgs as one batch on the facade's worker pool (sized by
// -workers), writes each finished run's artifacts numbered by its slot and
// returns the results in cfgs order. An interrupt returns the runs that
// finished, nil for the rest, with its error: the caller prints the rows
// those complete, then hands the error to exitOnError. A failed run exits
// at once.
func runAll(cfgs ...hermes.Config) ([]*hermes.Result, error) {
	for i := range cfgs {
		c := &cfgs[i]
		c.Telemetry = c.Telemetry || telemetryOn
		if perfRunsOn && c.Perf == nil {
			// Reports go to the process-default status tracker (set in main).
			c.Perf = &hermes.PerfOptions{}
		}
		// Each run records into its own trace and flight recorder.
		c.Trace = c.Trace || traceDir != ""
		c.TimeSeries = c.TimeSeries || timeseriesDir != ""
	}
	results, err := hermes.RunConfigs(benchCtx, cfgs, hermes.ParallelOptions{})
	if results == nil {
		exitOnError(err)
	}
	for i, res := range results {
		if res != nil {
			saveRunArtifacts(artifactSeq+i+1, cfgs[i], res)
		}
	}
	artifactSeq += len(cfgs)
	return results, err
}

// saveRunArtifacts writes the per-run report, audit log, flow trace and
// flight-recorder time series when -report, -audit, -trace or -timeseries
// named directories.
func saveRunArtifacts(seq int, cfg hermes.Config, res *hermes.Result) {
	if reportDir == "" && auditDir == "" && traceDir == "" && timeseriesDir == "" {
		return
	}
	base := fmt.Sprintf("%s_%03d_%s_load%03.0f", currentExp, seq, cfg.Scheme, cfg.Load*100)
	save := func(dir, suffix string, write func(io.Writer) error) {
		if err := cli.WriteFile(filepath.Join(dir, base+suffix), write); err != nil {
			cli.Exit(err)
		}
	}
	if reportDir != "" {
		rep, err := hermes.BuildReport(cfg, res)
		if err != nil {
			cli.Exit(err)
		}
		save(reportDir, ".json", rep.WriteJSON)
	}
	if auditDir != "" {
		save(auditDir, ".jsonl", res.Telemetry.Audit.WriteJSONL)
	}
	if traceDir != "" && res.Trace != nil {
		save(traceDir, ".trace.jsonl", res.Trace.WriteJSONL)
	}
	if timeseriesDir != "" && res.TimeSeries != nil {
		save(timeseriesDir, ".ts.jsonl", res.TimeSeries.WriteJSONL)
	}
}

func degrade() hermes.FailureSpec {
	return hermes.FailureSpec{Kind: hermes.FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
}

func header(loads []float64) {
	fmt.Printf("%-12s", "scheme")
	cols := []string{"scheme"}
	for _, l := range loads {
		fmt.Printf(" %9.0f%%", l*100)
		cols = append(cols, fmt.Sprintf("load%.0f", l*100))
	}
	fmt.Println()
	beginCSVTable(cols)
}

func row(name string, vals []float64) {
	fmt.Printf("%-12s", name)
	cells := []string{name}
	for _, v := range vals {
		fmt.Printf(" %10.3f", v)
		cells = append(cells, fmt.Sprintf("%.4f", v))
	}
	fmt.Println()
	csvRow(cells)
	plotRow(name, vals)
}

var (
	overallMs = func(r *hermes.Result) float64 { return r.FCT.Overall.MeanMs() }
	smallMs   = func(r *hermes.Result) float64 { return r.FCT.Small.MeanMs() }
	smallP99  = func(r *hermes.Result) float64 { return r.FCT.Small.P99Ms() }
	largeMs   = func(r *hermes.Result) float64 { return r.FCT.Large.MeanMs() }
	unfinPct  = func(r *hermes.Result) float64 { return 100 * r.FCT.UnfinishedFrac }
)

func init() {
	register("table2", "visibility: avg concurrent flows per parallel path, switch pair vs host pair", table2)
	register("table6", "probing schemes: visibility vs overhead (analytic + measured)", table6)
	register("fig7", "workload flow-size CDFs", fig7)
	register("fig15", "[sim] CONGA flowlet-timeout sweep @80% load, reordering masked", fig15)
	register("fig18a", "[sim] Hermes ablation: probing and rerouting contributions", fig18a)
	register("fig18b", "[sim] Hermes probe-interval sweep", fig18b)
	register("fig19", "[sim] sensitivity to T_RTT_high and Delta_RTT", fig19)
	register("ablation", "[extra] cautious vs vigorous rerouting (congestion mismatch cost)", ablationCaution)
	for _, s := range loadSweeps {
		register(s.name, s.what, s.run)
	}
}

// --- Table 2 ---------------------------------------------------------------

func table2(o options) {
	var cfgs []hermes.Config
	for _, wl := range []string{"data-mining", "web-search"} {
		for _, load := range []float64{0.6, 0.8} {
			cfgs = append(cfgs, hermes.Config{
				Topology: simTopo(o), Scheme: hermes.SchemeECMP, Workload: wl,
				Load: load, Flows: o.flows, Seed: o.seed, MeasureVisibility: true,
			})
		}
	}
	rs, err := runAll(cfgs...)
	fmt.Println("avg concurrent flows observable per parallel path (Table 2 shape):")
	fmt.Printf("%-14s %12s %12s %12s %12s\n", "", "dm @60%", "dm @80%", "ws @60%", "ws @80%")
	if !slices.Contains(rs, nil) {
		fmt.Printf("%-14s %12.3f %12.3f %12.3f %12.3f\n", "switch pair", rs[0].VisibilitySwitchPair,
			rs[1].VisibilitySwitchPair, rs[2].VisibilitySwitchPair, rs[3].VisibilitySwitchPair)
		fmt.Printf("%-14s %12.5f %12.5f %12.5f %12.5f\n", "host pair", rs[0].VisibilityHostPair,
			rs[1].VisibilityHostPair, rs[2].VisibilityHostPair, rs[3].VisibilityHostPair)
	}
	exitOnError(err)
	fmt.Println("expected shape: switch pairs see 2-3 orders of magnitude more flows per path.")
}

// --- Table 6 ---------------------------------------------------------------

func table6(o options) {
	// Analytic reproduction at the paper's scale: 100x100 leaf-spine,
	// 10 Gbps links, 64 B probes, 500 us interval, 1000 hosts per... the
	// paper uses 10^5 hosts (1000 per leaf's worth of probing amortization).
	const (
		leaves       = 100
		paths        = 100
		linkBps      = 10e9
		probeBytes   = 64 * 8 // bits
		intervalSec  = 500e-6
		hostsPerLeaf = 1000
	)
	probeRate := func(pathsProbed, destinations float64) float64 {
		return pathsProbed * destinations * probeBytes / intervalSec // bits/s per prober
	}
	bruteHost := probeRate(paths, float64(leaves-1)*hostsPerLeaf) // host probes every path to every host
	po2cHost := probeRate(3, float64(leaves-1)*hostsPerLeaf)
	hermesAgent := probeRate(3, leaves-1) // one agent per rack, per-leaf destinations

	fmt.Printf("%-22s %12s %16s %14s\n", "scheme", "visibility", "overhead (model)", "paper reports")
	fmt.Printf("%-22s %12s %16s %14s\n", "piggyback [23,24]", "<0.01", "~0", "NA")
	fmt.Printf("%-22s %12d %15.0fx %14s\n", "brute-force probing", paths, bruteHost/linkBps, "100x")
	fmt.Printf("%-22s %12s %15.1fx %14s\n", "power of two choices", ">3", po2cHost/linkBps, "3x")
	fmt.Printf("%-22s %12s %15.2f%% %14s\n", "Hermes (rack agents)", ">3", 100*hermesAgent/linkBps, "3%")
	fmt.Println("model: per-prober rate = pathsProbed x destinations x 64B / 500us; the paper's")
	fmt.Println("per-host rows normalize destinations differently, but the ratios it highlights")
	fmt.Println("(po2c ~30x cheaper than brute force; rack agents another ~100x cheaper) match.")

	// Measured: run Hermes on the reduced fabric and report actual
	// per-agent overhead and per-destination path coverage.
	rs, err := runAll(hermes.Config{
		Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: "web-search",
		Load: 0.5, Flows: o.flows / 2, Seed: o.seed,
	})
	exitOnError(err)
	fmt.Printf("measured (reduced fabric): probe overhead %.3f%% of one access link, %d probes sent\n",
		100*rs[0].ProbeOverhead, rs[0].ProbesSent)
}

// --- Fig 7 -------------------------------------------------------------------

func fig7(o options) {
	for _, d := range []*workload.CDF{workload.WebSearch, workload.DataMining} {
		fmt.Printf("%s CDF (mean %.2f MB):\n", d.Name, d.Mean()/1e6)
		fmt.Printf("  %12s %8s\n", "size (B)", "CDF")
		for _, p := range d.Points() {
			fmt.Printf("  %12d %8.2f\n", p.Bytes, p.Prob)
		}
	}
}

// --- Load sweeps (Fig 9-14, 16, 17) ------------------------------------------

// loadSweep is one load-sweep figure: every scheme at every load, for each
// workload, on one fabric. It runs as one batch and prints, for each
// workload, one table per statistic, a row per scheme and a column per load.
type loadSweep struct {
	name, what string
	// testbed selects the paper's testbed, where CLOVE-ECN uses the best
	// flowlet timeout the authors found on 1 Gbps hardware (800 us, §5.1);
	// otherwise the sweep runs on simTopo.
	testbed   bool
	workloads []string
	schemes   []hermes.Scheme
	loads     []float64
	failure   func(hermes.Topology) hermes.FailureSpec // nil: a healthy fabric
	// intro, when set, is printed once before the tables and names the
	// sweep's one workload, which the table titles then leave out.
	intro  string
	tables []sweepTable
	shape  string // the paper's expected shape, printed after the tables
}

// sweepTable is one statistic of a loadSweep, optionally as a ratio to
// Hermes at the same workload and load.
type sweepTable struct {
	title      string
	stat       func(*hermes.Result) float64
	normalized bool
}

// plan lists the sweep's configs workload by workload, scheme by scheme and
// load by load: the order run reads them in and artifacts are numbered in.
func (s loadSweep) plan(o options) []hermes.Config {
	topo := simTopo(o)
	if s.testbed {
		topo = hermes.TestbedTopology()
	}
	var cfgs []hermes.Config
	for _, wl := range s.workloads {
		for _, sch := range s.schemes {
			for _, l := range s.loads {
				cfg := hermes.Config{
					Topology: topo, Scheme: sch, Workload: wl,
					Load: l, Flows: o.flows, Seed: o.seed,
				}
				if s.failure != nil {
					cfg.Failure = s.failure(topo)
				}
				if s.testbed && sch == hermes.SchemeCLOVE {
					cfg.FlowletTimeoutNs = 800_000
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// run runs the sweep's plan as one batch and prints its tables.
func (s loadSweep) run(o options) {
	rs, err := runAll(s.plan(o)...)
	s.print(rs)
	exitOnError(err)
	if s.shape != "" {
		fmt.Println(s.shape)
	}
}

// print prints the sweep's tables from rs, its results in plan order. After
// an interrupt it prints only the rows whose runs, and Hermes' runs for a
// normalized row, all finished, and only the tables left with a row: a
// table with none prints no heading and writes no -csv file, though it
// keeps its number, and the intro waits for the first table printed.
func (s loadSweep) print(rs []*hermes.Result) {
	intro := s.intro
	for _, wl := range s.workloads {
		runs := map[hermes.Scheme][]*hermes.Result{}
		for _, sch := range s.schemes {
			runs[sch], rs = rs[:len(s.loads)], rs[len(s.loads):]
		}
		base := runs[hermes.SchemeHermes]
		for _, t := range s.tables {
			var finished []hermes.Scheme
			for _, sch := range s.schemes {
				if !slices.Contains(runs[sch], nil) && !(t.normalized && slices.Contains(base, nil)) {
					finished = append(finished, sch)
				}
			}
			if len(finished) == 0 {
				skipCSVTable()
				continue
			}
			if intro != "" {
				fmt.Println(intro)
				intro = ""
			}
			switch {
			case s.intro == "":
				fmt.Printf("\n[%s] %s:\n", wl, t.title)
			case t.title != "":
				fmt.Printf("\n%s:\n", t.title)
			}
			header(s.loads)
			for _, sch := range finished {
				vals := make([]float64, len(s.loads))
				for j, r := range runs[sch] {
					vals[j] = t.stat(r)
					if t.normalized && t.stat(base[j]) > 0 {
						vals[j] /= t.stat(base[j])
					}
				}
				row(string(sch), vals)
			}
		}
	}
}

// fixed is a failure that does not depend on the fabric.
func fixed(f hermes.FailureSpec) func(hermes.Topology) hermes.FailureSpec {
	return func(hermes.Topology) hermes.FailureSpec { return f }
}

var testbedSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemeCLOVE, hermes.SchemePresto, hermes.SchemeHermes,
}

var simSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
	hermes.SchemeLetFlow, hermes.SchemeCLOVE, hermes.SchemeHermes,
	hermes.SchemeREPS, hermes.SchemeRepFlow,
}

var failureSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
	hermes.SchemeLetFlow, hermes.SchemeREPS, hermes.SchemeRepFlow,
	hermes.SchemeHermes,
}

var bothWorkloads = []string{"web-search", "data-mining"}

// linkCut is the testbed "link cut": one of the two parallel 1 Gbps cables
// between leaf 1 and spine 1 unplugged, leaving 3 of 4 paths (Fig 8b).
var linkCut = hermes.FailureSpec{Kind: hermes.FailureCutCable, CutLeaf: 1, CutSpine: 1}

var loadSweeps = []loadSweep{
	{
		name: "fig9", what: "[testbed] symmetric: overall avg FCT vs load",
		testbed: true, workloads: bothWorkloads, schemes: testbedSchemes,
		loads:  []float64{0.3, 0.5, 0.7, 0.9},
		tables: []sweepTable{{title: "overall avg FCT (ms), symmetric testbed", stat: overallMs}},
		shape:  "expected shape: Hermes 10-38% under ECMP, ~= Presto*, <= CLOVE-ECN by ~10%.",
	},
	{
		name: "fig10", what: "[testbed] asymmetric (link cut): overall avg FCT vs load",
		testbed: true, workloads: bothWorkloads, schemes: testbedSchemes,
		loads: []float64{0.3, 0.5, 0.6, 0.7}, failure: fixed(linkCut),
		tables: []sweepTable{{title: "overall avg FCT (ms), testbed with leaf1-spine1 cut", stat: overallMs}},
		shape: "expected shape: ECMP deteriorates past ~40-50% load; Hermes leads;\n" +
			"Presto* (capacity weights) suffers congestion mismatch at high load.",
	},
	{
		name: "fig11", what: "[testbed] asymmetric web-search: small/large flow breakdown",
		testbed: true, workloads: []string{"web-search"}, schemes: testbedSchemes,
		loads: []float64{0.3, 0.5, 0.6, 0.7}, failure: fixed(linkCut),
		tables: []sweepTable{
			{title: "small flows avg FCT (ms), asymmetric testbed", stat: smallMs},
			{title: "small flows 99th pct (ms), asymmetric testbed", stat: smallP99},
			{title: "large flows avg FCT (ms), asymmetric testbed", stat: largeMs},
		},
	},
	{
		name: "fig12", what: "[sim] symmetric baseline: overall avg FCT vs load, both workloads",
		workloads: bothWorkloads, schemes: simSchemes, loads: []float64{0.3, 0.5, 0.7, 0.9},
		tables: []sweepTable{{title: "overall avg FCT (ms), symmetric baseline", stat: overallMs}},
		shape: "expected shape: Hermes up to ~55% under ECMP (web-search), within ~17% of\n" +
			"CONGA on web-search and slightly ahead of CONGA on data-mining.",
	},
	{
		name: "fig13", what: "[sim] asymmetric web-search FCT statistics (normalized to Hermes)",
		workloads: []string{"web-search"}, schemes: simSchemes, loads: []float64{0.5, 0.7, 0.9},
		failure: fixed(degrade()),
		tables: []sweepTable{
			{title: "overall avg FCT (normalized to Hermes)", stat: overallMs, normalized: true},
			{title: "small flows avg FCT (normalized to Hermes)", stat: smallMs, normalized: true},
			{title: "small flows 99th pct FCT (normalized to Hermes)", stat: smallP99, normalized: true},
		},
		shape: "expected shape: CONGA leads overall; flowlet schemes' small-flow tail\n" +
			"degrades at high load; Hermes protects small flows (cautious rerouting).",
	},
	{
		name: "fig14", what: "[sim] asymmetric data-mining FCT statistics (normalized to Hermes)",
		workloads: []string{"data-mining"}, schemes: simSchemes, loads: []float64{0.5, 0.7, 0.9},
		failure: fixed(degrade()),
		tables: []sweepTable{
			{title: "overall avg FCT (normalized to Hermes)", stat: overallMs, normalized: true},
			{title: "large flows avg FCT (normalized to Hermes)", stat: largeMs, normalized: true},
		},
		shape: "expected shape: Hermes beats CONGA by 5-10% and CLOVE/LetFlow by 13-20%.",
	},
	{
		name: "fig16", what: "[sim] silent random packet drops (2% at one core switch)",
		workloads: []string{"web-search"}, schemes: failureSchemes, loads: []float64{0.3, 0.5, 0.7},
		failure: fixed(hermes.FailureSpec{Kind: hermes.FailureRandomDrop, Spine: 1, DropRate: 0.02}),
		intro:   "[web-search] 2% silent random drops at one core switch; avg FCT (ms):",
		tables:  []sweepTable{{stat: overallMs}},
		shape: "expected shape: Hermes ahead of everything by >32%; CONGA gains little\n" +
			"over ECMP because utilization-based sensing is fooled by quiet lossy paths.",
	},
	{
		name: "fig17", what: "[sim] packet blackhole: avg FCT and unfinished flows",
		workloads: []string{"web-search"}, schemes: failureSchemes, loads: []float64{0.3, 0.5, 0.7},
		failure: func(t hermes.Topology) hermes.FailureSpec {
			return hermes.FailureSpec{Kind: hermes.FailureBlackhole, Spine: 1, SrcLeaf: 0, DstLeaf: t.Leaves - 1}
		},
		intro: "[web-search] blackhole on half the rack0->rackN pairs at one core switch:",
		tables: []sweepTable{
			{title: "(a) overall avg FCT (ms)", stat: overallMs},
			{title: "(b) unfinished flows (%)", stat: unfinPct},
		},
		shape: "expected shape: Hermes detects the blackhole after 3 timeouts and finishes\n" +
			"every flow; ECMP strands a fixed share of hashed flows, inflating its mean.",
	},
}

// --- Fig 15, 18, 19 and the caution ablation ---------------------------------

// flowletSweep is Fig 15's sweep: CONGA at 80% load on the degraded fabric,
// reordering masked to isolate congestion mismatch, across flowlet timeouts.
// It runs the sweep at each queue factor as one batch and prints each
// factor's rows under its heading.
func flowletSweep(o options, queueFactors []int, headings []string) {
	timeoutsUs := []int64{50, 150, 500}
	var cfgs []hermes.Config
	for _, qf := range queueFactors {
		topo := simTopo(o)
		topo.QueueFactor = qf
		for _, us := range timeoutsUs {
			cfgs = append(cfgs, hermes.Config{
				Topology: topo, Scheme: hermes.SchemeCONGA, Workload: "web-search",
				Load: 0.8, Flows: o.flows, Seed: o.seed, Failure: degrade(),
				FlowletTimeoutNs: us * 1000,
				ReorderTimeoutNs: 400_000,
			})
		}
	}
	rs, err := runAll(cfgs...)
	for _, h := range headings {
		fmt.Println(h)
		fmt.Printf("%-18s %12s\n", "flowlet timeout", "avg FCT (ms)")
		for _, us := range timeoutsUs {
			if rs[0] != nil {
				fmt.Printf("%15dus %12.3f\n", us, rs[0].FCT.Overall.MeanMs())
			}
			rs = rs[1:]
		}
	}
	exitOnError(err)
}

func fig15(o options) {
	flowletSweep(o, []int{0}, []string{"[web-search] CONGA @80% load on the asymmetric fabric, reordering masked:"})
	fmt.Println("paper's shape: 150us beats 500us (more rerouting chances) but 50us is worst")
	fmt.Println("(congestion mismatch). In this simulator 500us >> 150us reproduces; the 50us")
	fmt.Println("penalty does not (see EXPERIMENTS.md and -exp fig15q).")
}

// derivedParams returns Table 4's Hermes parameters for the simulation
// fabric.
func derivedParams(o options) core.Params {
	p, err := hermes.DeriveHermesParams(simTopo(o))
	if err != nil {
		cli.Exit(err)
	}
	return p
}

// hermesRuns runs Hermes at load on the degraded simulation fabric as one
// batch: each parameter set with each workload, the results in that order.
func hermesRuns(o options, load float64, workloads []string, params ...core.Params) ([]*hermes.Result, error) {
	var cfgs []hermes.Config
	for _, p := range params {
		for _, wl := range workloads {
			cfgs = append(cfgs, hermes.Config{
				Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: wl,
				Load: load, Flows: o.flows, Seed: o.seed, Failure: degrade(),
				HermesParams: &p,
			})
		}
	}
	return runAll(cfgs...)
}

func fig18a(o options) {
	full := derivedParams(o)
	noProbe, noReroute, neither := full, full, full
	noProbe.ProbeInterval, neither.ProbeInterval = 0, 0
	noReroute.DisableReroute, neither.DisableReroute = true, true
	rs, err := hermesRuns(o, 0.6, []string{"data-mining"}, full, noProbe, noReroute, neither)
	fmt.Println("[data-mining] Hermes component ablation on the asymmetric fabric @60%:")
	fmt.Printf("%-22s %12s %12s %12s\n", "variant", "avg (ms)", "small (ms)", "large (ms)")
	for i, name := range []string{"hermes (full)", "without probing", "without rerouting", "without both"} {
		if r := rs[i]; r != nil {
			fmt.Printf("%-22s %12.3f %12.3f %12.3f\n", name,
				r.FCT.Overall.MeanMs(), r.FCT.Small.MeanMs(), r.FCT.Large.MeanMs())
		}
	}
	exitOnError(err)
	fmt.Println("expected shape: probing ~20% and rerouting ~10% of the overall improvement.")
}

func fig18b(o options) {
	intervalsUs := []int64{0, 500, 100}
	base := derivedParams(o)
	params := make([]core.Params, len(intervalsUs))
	for i, us := range intervalsUs {
		params[i] = base
		params[i].ProbeInterval = sim.Time(us) * sim.Microsecond
	}
	rs, err := hermesRuns(o, 0.6, []string{"data-mining"}, params...)
	fmt.Println("[data-mining] probe-interval sweep on the asymmetric fabric @60%:")
	fmt.Printf("%-18s %12s\n", "probe interval", "avg FCT (ms)")
	for i, us := range intervalsUs {
		if rs[i] == nil {
			continue
		}
		label := fmt.Sprintf("%dus", us)
		if us == 0 {
			label = "no probing"
		}
		fmt.Printf("%-18s %12.3f\n", label, rs[i].FCT.Overall.MeanMs())
	}
	exitOnError(err)
	fmt.Println("expected shape: 500us brings ~11-15% over no probing; 100us adds 1-3% more.")
}

func fig19(o options) {
	panels := []struct {
		heading, knob string
		valuesUs      []int64
		set           func(p *core.Params, v sim.Time)
	}{
		{"(a) sensitivity to T_RTT_high @60% load (asymmetric fabric), avg FCT (ms):", "T_RTT_high",
			[]int64{140, 180, 220, 260}, func(p *core.Params, v sim.Time) { p.TRTTHigh = v }},
		{"\n(b) sensitivity to Delta_RTT @60% load, avg FCT (ms):", "Delta_RTT",
			[]int64{40, 80, 120, 160}, func(p *core.Params, v sim.Time) { p.DeltaRTT = v }},
	}
	base := derivedParams(o)
	var params []core.Params
	for _, pn := range panels {
		for _, us := range pn.valuesUs {
			p := base
			pn.set(&p, sim.Time(us)*sim.Microsecond)
			params = append(params, p)
		}
	}
	rs, err := hermesRuns(o, 0.6, bothWorkloads, params...)
	for _, pn := range panels {
		fmt.Println(pn.heading)
		fmt.Printf("%-14s %12s %12s\n", pn.knob, "web-search", "data-mining")
		for _, us := range pn.valuesUs {
			ws, dm := rs[0], rs[1]
			rs = rs[2:]
			if ws != nil && dm != nil {
				fmt.Printf("%11dus %12.3f %12.3f\n", us, ws.FCT.Overall.MeanMs(), dm.FCT.Overall.MeanMs())
			}
		}
	}
	exitOnError(err)
	fmt.Println("expected shape: stable around the recommended settings; web-search favors")
	fmt.Println("conservative thresholds, data-mining favors aggressive ones.")
}

func ablationCaution(o options) {
	cautious := derivedParams(o)
	vigorous := cautious
	vigorous.Vigorous = true
	rs, err := hermesRuns(o, 0.7, []string{"web-search"}, cautious, vigorous)
	fmt.Println("[web-search] cautious vs vigorous rerouting @70% on the asymmetric fabric:")
	fmt.Printf("%-22s %12s %12s %14s\n", "variant", "avg (ms)", "small p99(ms)", "reroutes")
	for i, name := range []string{"cautious (Hermes)", "vigorous (no gates)"} {
		if r := rs[i]; r != nil {
			fmt.Printf("%-22s %12.3f %12.3f %14d\n", name,
				r.FCT.Overall.MeanMs(), r.FCT.Small.P99Ms(), r.Reroutes)
		}
	}
	exitOnError(err)
	fmt.Println("expected shape: vigorous rerouting inflates reroute counts and hurts FCT —")
	fmt.Println("the congestion-mismatch cost the caution gates (S, R, deltas) prevent.")
}
