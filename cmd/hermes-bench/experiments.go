package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/workload"
)

// simTopo returns the large-simulation fabric: the paper's 8x8x16 when
// -full, a proportionally reduced 4x4x8 otherwise.
func simTopo(o options) hermes.Topology {
	if o.full {
		return hermes.LargeScaleTopology()
	}
	return hermes.Topology{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelayNs: 2000, FabricDelayNs: 2000,
	}
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
// -workers), writes each run's artifacts in slot order and returns the
// results in cfgs order.
func runAll(cfgs ...hermes.Config) []*hermes.Result {
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
	exitOnError(err)
	for i, res := range results {
		saveRunArtifacts(cfgs[i], res)
	}
	return results
}

// saveRunArtifacts writes the per-run report, audit log, flow trace and
// flight-recorder time series when -report, -audit, -trace or -timeseries
// named directories.
func saveRunArtifacts(cfg hermes.Config, res *hermes.Result) {
	if reportDir == "" && auditDir == "" && traceDir == "" && timeseriesDir == "" {
		return
	}
	artifactSeq++
	base := fmt.Sprintf("%s_%03d_%s_load%03.0f", currentExp, artifactSeq, cfg.Scheme, cfg.Load*100)
	save := func(dir, suffix string, write func(io.Writer) error) {
		if err := writeFile(filepath.Join(dir, base+suffix), write); err != nil {
			log.Fatal(err)
		}
	}
	if reportDir != "" {
		rep, err := hermes.BuildReport(cfg, res)
		if err != nil {
			log.Fatal(err)
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

// writeFile creates path and fills it with write, returning the first of
// the write and Close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func degrade() hermes.FailureSpec {
	return hermes.FailureSpec{Kind: hermes.FailureDegrade, Fraction: 0.2, DegradedBps: 2e9}
}

// sweep runs one scheme across loads as one batch and returns the results
// in load order.
func sweep(cfg hermes.Config, loads []float64) []*hermes.Result {
	cfgs := make([]hermes.Config, len(loads))
	for i, l := range loads {
		cfgs[i] = cfg
		cfgs[i].Load = l
	}
	return runAll(cfgs...)
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

func means(rs []*hermes.Result, pick func(*hermes.Result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = pick(r)
	}
	return out
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
	register("fig9", "[testbed] symmetric: overall avg FCT vs load", fig9)
	register("fig10", "[testbed] asymmetric (link cut): overall avg FCT vs load", fig10)
	register("fig11", "[testbed] asymmetric web-search: small/large flow breakdown", fig11)
	register("fig12", "[sim] symmetric baseline: overall avg FCT vs load, both workloads", fig12)
	register("fig13", "[sim] asymmetric web-search FCT statistics (normalized to Hermes)", fig13)
	register("fig14", "[sim] asymmetric data-mining FCT statistics (normalized to Hermes)", fig14)
	register("fig15", "[sim] CONGA flowlet-timeout sweep @80% load, reordering masked", fig15)
	register("fig16", "[sim] silent random packet drops (2% at one core switch)", fig16)
	register("fig17", "[sim] packet blackhole: avg FCT and unfinished flows", fig17)
	register("fig18a", "[sim] Hermes ablation: probing and rerouting contributions", fig18a)
	register("fig18b", "[sim] Hermes probe-interval sweep", fig18b)
	register("fig19", "[sim] sensitivity to T_RTT_high and Delta_RTT", fig19)
	register("ablation", "[extra] cautious vs vigorous rerouting (congestion mismatch cost)", ablationCaution)
}

// --- Table 2 ---------------------------------------------------------------

func table2(o options) {
	topo := simTopo(o)
	fmt.Println("avg concurrent flows observable per parallel path (Table 2 shape):")
	fmt.Printf("%-14s %12s %12s %12s %12s\n", "", "dm @60%", "dm @80%", "ws @60%", "ws @80%")
	var sw, hp [4]float64
	i := 0
	for _, wl := range []string{"data-mining", "web-search"} {
		for _, load := range []float64{0.6, 0.8} {
			res := runAll(hermes.Config{
				Topology: topo, Scheme: hermes.SchemeECMP, Workload: wl,
				Load: load, Flows: o.flows, Seed: o.seed, MeasureVisibility: true,
			})[0]
			sw[i], hp[i] = res.VisibilitySwitchPair, res.VisibilityHostPair
			i++
		}
	}
	fmt.Printf("%-14s %12.3f %12.3f %12.3f %12.3f\n", "switch pair", sw[0], sw[1], sw[2], sw[3])
	fmt.Printf("%-14s %12.5f %12.5f %12.5f %12.5f\n", "host pair", hp[0], hp[1], hp[2], hp[3])
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
	res := runAll(hermes.Config{
		Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: "web-search",
		Load: 0.5, Flows: o.flows / 2, Seed: o.seed,
	})[0]
	fmt.Printf("measured (reduced fabric): probe overhead %.3f%% of one access link, %d probes sent\n",
		100*res.ProbeOverhead, res.ProbesSent)
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

// --- Testbed experiments (Fig 9-11) -----------------------------------------

var testbedSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemeCLOVE, hermes.SchemePresto, hermes.SchemeHermes,
}

// testbedCfg applies the paper's testbed settings: CLOVE-ECN uses the best
// flowlet timeout the authors found on 1 Gbps hardware (800 us, §5.1).
func testbedCfg(cfg hermes.Config) hermes.Config {
	if cfg.Scheme == hermes.SchemeCLOVE {
		cfg.FlowletTimeoutNs = 800_000
	}
	return cfg
}

func fig9(o options) {
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	for _, wl := range []string{"web-search", "data-mining"} {
		fmt.Printf("\n[%s] overall avg FCT (ms), symmetric testbed:\n", wl)
		header(loads)
		for _, sch := range testbedSchemes {
			rs := sweep(testbedCfg(hermes.Config{
				Topology: hermes.TestbedTopology(), Scheme: sch, Workload: wl,
				Flows: o.flows, Seed: o.seed,
			}), loads)
			row(string(sch), means(rs, overallMs))
		}
	}
	fmt.Println("expected shape: Hermes 10-38% under ECMP, ~= Presto*, <= CLOVE-ECN by ~10%.")
}

func fig10(o options) {
	loads := []float64{0.3, 0.5, 0.6, 0.7}
	// The testbed "link cut" unplugs one of two parallel 1 Gbps cables
	// between leaf 1 and spine 1: 3 of 4 paths remain (Fig 8b).
	cut := hermes.FailureSpec{Kind: hermes.FailureCutCable, CutLeaf: 1, CutSpine: 1}
	for _, wl := range []string{"web-search", "data-mining"} {
		fmt.Printf("\n[%s] overall avg FCT (ms), testbed with leaf1-spine1 cut:\n", wl)
		header(loads)
		for _, sch := range testbedSchemes {
			rs := sweep(testbedCfg(hermes.Config{
				Topology: hermes.TestbedTopology(), Scheme: sch, Workload: wl,
				Flows: o.flows, Seed: o.seed, Failure: cut,
			}), loads)
			row(string(sch), means(rs, overallMs))
		}
	}
	fmt.Println("expected shape: ECMP deteriorates past ~40-50% load; Hermes leads;")
	fmt.Println("Presto* (capacity weights) suffers congestion mismatch at high load.")
}

func fig11(o options) {
	loads := []float64{0.3, 0.5, 0.6, 0.7}
	cut := hermes.FailureSpec{Kind: hermes.FailureCutCable, CutLeaf: 1, CutSpine: 1}
	type picked struct {
		name string
		pick func(*hermes.Result) float64
	}
	for _, p := range []picked{
		{"small flows avg FCT (ms)", smallMs},
		{"small flows 99th pct (ms)", smallP99},
		{"large flows avg FCT (ms)", largeMs},
	} {
		fmt.Printf("\n[web-search] %s, asymmetric testbed:\n", p.name)
		header(loads)
		for _, sch := range testbedSchemes {
			rs := sweep(testbedCfg(hermes.Config{
				Topology: hermes.TestbedTopology(), Scheme: sch, Workload: "web-search",
				Flows: o.flows, Seed: o.seed, Failure: cut,
			}), loads)
			row(string(sch), means(rs, p.pick))
		}
	}
}

// --- Large-scale simulations (Fig 12-19) -------------------------------------

var simSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
	hermes.SchemeLetFlow, hermes.SchemeCLOVE, hermes.SchemeHermes,
	hermes.SchemeREPS, hermes.SchemeRepFlow,
}

func fig12(o options) {
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	for _, wl := range []string{"web-search", "data-mining"} {
		fmt.Printf("\n[%s] overall avg FCT (ms), symmetric baseline:\n", wl)
		header(loads)
		for _, sch := range simSchemes {
			rs := sweep(hermes.Config{
				Topology: simTopo(o), Scheme: sch, Workload: wl,
				Flows: o.flows, Seed: o.seed,
			}, loads)
			row(string(sch), means(rs, overallMs))
		}
	}
	fmt.Println("expected shape: Hermes up to ~55% under ECMP (web-search), within ~17% of")
	fmt.Println("CONGA on web-search and slightly ahead of CONGA on data-mining.")
}

// asymSweeps runs every scheme once across the loads on the degraded fabric
// and prints one normalized table per requested statistic.
func asymSweeps(o options, wl string, loads []float64, stats []struct {
	what string
	pick func(*hermes.Result) float64
}) {
	results := map[hermes.Scheme][]*hermes.Result{}
	for _, sch := range simSchemes {
		results[sch] = sweep(hermes.Config{
			Topology: simTopo(o), Scheme: sch, Workload: wl,
			Flows: o.flows, Seed: o.seed, Failure: degrade(),
		}, loads)
	}
	for _, st := range stats {
		fmt.Printf("\n[%s] %s (normalized to Hermes):\n", wl, st.what)
		header(loads)
		baseVals := means(results[hermes.SchemeHermes], st.pick)
		for _, sch := range simSchemes {
			vals := means(results[sch], st.pick)
			for i := range vals {
				if baseVals[i] > 0 {
					vals[i] /= baseVals[i]
				}
			}
			row(string(sch), vals)
		}
	}
}

func fig13(o options) {
	loads := []float64{0.5, 0.7, 0.9}
	asymSweeps(o, "web-search", loads, []struct {
		what string
		pick func(*hermes.Result) float64
	}{
		{"overall avg FCT", overallMs},
		{"small flows avg FCT", smallMs},
		{"small flows 99th pct FCT", smallP99},
	})
	fmt.Println("expected shape: CONGA leads overall; flowlet schemes' small-flow tail")
	fmt.Println("degrades at high load; Hermes protects small flows (cautious rerouting).")
}

func fig14(o options) {
	loads := []float64{0.5, 0.7, 0.9}
	asymSweeps(o, "data-mining", loads, []struct {
		what string
		pick func(*hermes.Result) float64
	}{
		{"overall avg FCT", overallMs},
		{"large flows avg FCT", largeMs},
	})
	fmt.Println("expected shape: Hermes beats CONGA by 5-10% and CLOVE/LetFlow by 13-20%.")
}

func fig15(o options) {
	fmt.Println("[web-search] CONGA @80% load on the asymmetric fabric, reordering masked:")
	fmt.Printf("%-18s %12s\n", "flowlet timeout", "avg FCT (ms)")
	for _, us := range []int64{50, 150, 500} {
		res := runAll(hermes.Config{
			Topology: simTopo(o), Scheme: hermes.SchemeCONGA, Workload: "web-search",
			Load: 0.8, Flows: o.flows, Seed: o.seed, Failure: degrade(),
			FlowletTimeoutNs: us * 1000,
			ReorderTimeoutNs: 400_000, // mask reordering, isolating mismatch
		})[0]
		fmt.Printf("%15dus %12.3f\n", us, res.FCT.Overall.MeanMs())
	}
	fmt.Println("paper's shape: 150us beats 500us (more rerouting chances) but 50us is worst")
	fmt.Println("(congestion mismatch). In this simulator 500us >> 150us reproduces; the 50us")
	fmt.Println("penalty does not (see EXPERIMENTS.md and -exp fig15q).")
}

var failureSchemes = []hermes.Scheme{
	hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
	hermes.SchemeLetFlow, hermes.SchemeREPS, hermes.SchemeRepFlow,
	hermes.SchemeHermes,
}

func fig16(o options) {
	loads := []float64{0.3, 0.5, 0.7}
	spec := hermes.FailureSpec{Kind: hermes.FailureRandomDrop, Spine: 1, DropRate: 0.02}
	fmt.Println("[web-search] 2% silent random drops at one core switch; avg FCT (ms):")
	header(loads)
	for _, sch := range failureSchemes {
		rs := sweep(hermes.Config{
			Topology: simTopo(o), Scheme: sch, Workload: "web-search",
			Flows: o.flows, Seed: o.seed, Failure: spec,
		}, loads)
		row(string(sch), means(rs, overallMs))
	}
	fmt.Println("expected shape: Hermes ahead of everything by >32%; CONGA gains little")
	fmt.Println("over ECMP because utilization-based sensing is fooled by quiet lossy paths.")
}

func fig17(o options) {
	loads := []float64{0.3, 0.5, 0.7}
	topo := simTopo(o)
	spec := hermes.FailureSpec{Kind: hermes.FailureBlackhole, Spine: 1,
		SrcLeaf: 0, DstLeaf: topo.Leaves - 1}
	fmt.Println("[web-search] blackhole on half the rack0->rackN pairs at one core switch:")
	fmt.Println("\n(a) overall avg FCT (ms):")
	header(loads)
	all := map[hermes.Scheme][]*hermes.Result{}
	for _, sch := range failureSchemes {
		all[sch] = sweep(hermes.Config{
			Topology: topo, Scheme: sch, Workload: "web-search",
			Flows: o.flows, Seed: o.seed, Failure: spec,
		}, loads)
		row(string(sch), means(all[sch], overallMs))
	}
	fmt.Println("\n(b) unfinished flows (%):")
	header(loads)
	for _, sch := range failureSchemes {
		row(string(sch), means(all[sch], unfinPct))
	}
	fmt.Println("expected shape: Hermes detects the blackhole after 3 timeouts and finishes")
	fmt.Println("every flow; ECMP strands a fixed share of hashed flows, inflating its mean.")
}

func fig18a(o options) {
	fmt.Println("[data-mining] Hermes component ablation on the asymmetric fabric @60%:")
	fmt.Printf("%-22s %12s %12s %12s\n", "variant", "avg (ms)", "small (ms)", "large (ms)")
	variants := []struct {
		name               string
		noProbe, noReroute bool
	}{
		{"hermes (full)", false, false},
		{"without probing", true, false},
		{"without rerouting", false, true},
		{"without both", true, true},
	}
	base, err := hermes.DeriveHermesParams(simTopo(o))
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range variants {
		params := base
		if v.noProbe {
			params.ProbeInterval = 0
		}
		params.DisableReroute = v.noReroute
		res := runAll(hermes.Config{
			Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: "data-mining",
			Load: 0.6, Flows: o.flows, Seed: o.seed, Failure: degrade(),
			HermesParams: &params,
		})[0]
		fmt.Printf("%-22s %12.3f %12.3f %12.3f\n", v.name,
			res.FCT.Overall.MeanMs(), res.FCT.Small.MeanMs(), res.FCT.Large.MeanMs())
	}
	fmt.Println("expected shape: probing ~20% and rerouting ~10% of the overall improvement.")
}

func fig18b(o options) {
	fmt.Println("[data-mining] probe-interval sweep on the asymmetric fabric @60%:")
	fmt.Printf("%-18s %12s\n", "probe interval", "avg FCT (ms)")
	base, err := hermes.DeriveHermesParams(simTopo(o))
	if err != nil {
		log.Fatal(err)
	}
	for _, us := range []int64{0, 500, 100} {
		params := base
		params.ProbeInterval = sim.Time(us) * sim.Microsecond
		res := runAll(hermes.Config{
			Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: "data-mining",
			Load: 0.6, Flows: o.flows, Seed: o.seed, Failure: degrade(),
			HermesParams: &params,
		})[0]
		label := fmt.Sprintf("%dus", us)
		if us == 0 {
			label = "no probing"
		}
		fmt.Printf("%-18s %12.3f\n", label, res.FCT.Overall.MeanMs())
	}
	fmt.Println("expected shape: 500us brings ~11-15% over no probing; 100us adds 1-3% more.")
}

func fig19(o options) {
	topo := simTopo(o)
	base, err := hermes.DeriveHermesParams(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("(a) sensitivity to T_RTT_high @60% load (asymmetric fabric), avg FCT (ms):")
	fmt.Printf("%-14s %12s %12s\n", "T_RTT_high", "web-search", "data-mining")
	for _, us := range []int64{140, 180, 220, 260} {
		vals := make([]float64, 2)
		for i, wl := range []string{"web-search", "data-mining"} {
			p := base
			p.TRTTHigh = sim.Time(us) * sim.Microsecond
			res := runAll(hermes.Config{
				Topology: topo, Scheme: hermes.SchemeHermes, Workload: wl,
				Load: 0.6, Flows: o.flows, Seed: o.seed, Failure: degrade(),
				HermesParams: &p,
			})[0]
			vals[i] = res.FCT.Overall.MeanMs()
		}
		fmt.Printf("%11dus %12.3f %12.3f\n", us, vals[0], vals[1])
	}
	fmt.Println("\n(b) sensitivity to Delta_RTT @60% load, avg FCT (ms):")
	fmt.Printf("%-14s %12s %12s\n", "Delta_RTT", "web-search", "data-mining")
	for _, us := range []int64{40, 80, 120, 160} {
		vals := make([]float64, 2)
		for i, wl := range []string{"web-search", "data-mining"} {
			p := base
			p.DeltaRTT = sim.Time(us) * sim.Microsecond
			res := runAll(hermes.Config{
				Topology: topo, Scheme: hermes.SchemeHermes, Workload: wl,
				Load: 0.6, Flows: o.flows, Seed: o.seed, Failure: degrade(),
				HermesParams: &p,
			})[0]
			vals[i] = res.FCT.Overall.MeanMs()
		}
		fmt.Printf("%11dus %12.3f %12.3f\n", us, vals[0], vals[1])
	}
	fmt.Println("expected shape: stable around the recommended settings; web-search favors")
	fmt.Println("conservative thresholds, data-mining favors aggressive ones.")
}

func ablationCaution(o options) {
	fmt.Println("[web-search] cautious vs vigorous rerouting @70% on the asymmetric fabric:")
	fmt.Printf("%-22s %12s %12s %14s\n", "variant", "avg (ms)", "small p99(ms)", "reroutes")
	base, err := hermes.DeriveHermesParams(simTopo(o))
	if err != nil {
		log.Fatal(err)
	}
	for _, vigorous := range []bool{false, true} {
		params := base
		params.Vigorous = vigorous
		res := runAll(hermes.Config{
			Topology: simTopo(o), Scheme: hermes.SchemeHermes, Workload: "web-search",
			Load: 0.7, Flows: o.flows, Seed: o.seed, Failure: degrade(),
			HermesParams: &params,
		})[0]
		name := "cautious (Hermes)"
		if vigorous {
			name = "vigorous (no gates)"
		}
		fmt.Printf("%-22s %12.3f %12.3f %14d\n", name,
			res.FCT.Overall.MeanMs(), res.FCT.Small.P99Ms(), res.Reroutes)
	}
	fmt.Println("expected shape: vigorous rerouting inflates reroute counts and hurts FCT —")
	fmt.Println("the congestion-mismatch cost the caution gates (S, R, deltas) prevent.")
}
