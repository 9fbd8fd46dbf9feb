// hermes-sim runs a single load balancing experiment and prints its
// measurements as text or JSON.
//
// Examples:
//
//	hermes-sim -scheme hermes -workload web-search -load 0.6 -flows 1000
//	hermes-sim -scheme conga -failure random-drop -drop-rate 0.02 -json
//	hermes-sim -topology testbed -scheme presto -load 0.5
//	hermes-sim -scheme hermes -flows 50000 -soak -checkpoint-dir ckpts
//	hermes-sim -resume ckpts -json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/perf"
)

func main() {
	var (
		topoName = flag.String("topology", "large", `"testbed" (2x2, 1G), "large" (8x8, 10G) or "small" (4x4, 10G)`)
		scheme   = flag.String("scheme", "hermes", "ecmp|presto|drb|letflow|drill|conga|clove|flowbender|mptcp|reps|repflow|hermes")
		workload = flag.String("workload", "web-search", "web-search|data-mining")
		wlFile   = flag.String("workload-file", "", "custom flow-size CDF file (overrides -workload)")
		load     = flag.Float64("load", 0.6, "offered load as a fraction of bisection bandwidth")
		flows    = flag.Int("flows", 1000, "number of flows to generate")
		seed     = flag.Int64("seed", 1, "random seed (same seed => same run)")
		protocol = flag.String("protocol", "dctcp", "dctcp|reno")
		flowlet  = flag.Int64("flowlet-us", 0, "flowlet timeout override in microseconds (CONGA/LetFlow/CLOVE)")
		maxFlow  = flag.Int64("max-flow-bytes", 0, "flow size cap (0 = workload default)")

		failKind = flag.String("failure", "", "''|random-drop|blackhole|spine-blackhole|degrade|cut-link|cut-cable|degrade-link|degrade-spine|flap|spine-down|leaf-down")
		spine    = flag.Int("spine", -1, "failed spine index (-1 = random)")
		dropRate = flag.Float64("drop-rate", 0, "silent random drop probability (0 = the kind's default, 0.02)")
		frac     = flag.Float64("degrade-fraction", 0, "fraction of fabric links degraded (0 = the kind's default, 0.2)")
		degBps   = flag.Int64("degrade-bps", 0, "degraded rate per cable in bps (0 = the kind's default: a fifth of the fabric rate for degrade and degrade-spine, half for degrade-link, a cut for flap)")
		cutLeaf  = flag.Int("cut-leaf", 0, "leaf side of the cut link")
		cutSpine = flag.Int("cut-spine", 0, "spine side of the cut link")
		flapUs   = flag.Int64("flap-period-us", 0, "flap cycle period in microseconds (failure=flap)")
		flapDown = flag.Int64("flap-down-us", 0, "degraded time per flap cycle in microseconds (failure=flap)")

		scenarioName = flag.String("scenario", "", `chaos scenario: a builtin name (see -scenario list), or "random"`)
		scenarioFile = flag.String("scenario-file", "", "load a chaos Scenario timeline from a JSON file (overrides -scenario)")
		intensity    = flag.Float64("chaos-intensity", 0.5, "severity of -scenario random, 0..1")

		visibility   = flag.Bool("visibility", false, "measure Table 2 visibility")
		jsonOut      = flag.Bool("json", false, "emit JSON instead of text")
		traceFile    = flag.String("trace", "", "write per-flow JSONL trace to this file (analyze with hermes-trace)")
		perfettoFile = flag.String("perfetto", "", "write the trace as Chrome trace-event JSON (open in ui.perfetto.dev)")
		telem        = flag.Bool("telemetry", false, "enable the report sweep, histograms and audit log")
		reportFile   = flag.String("report", "", "write the full run report here (.csv = CSV, else JSON; implies -telemetry)")
		auditFile    = flag.String("audit", "", "write the Hermes decision audit log as JSONL (implies -telemetry)")
		sweepUs      = flag.Int64("sweep-us", 1000, "telemetry sweep interval in microseconds")
		tsFile       = flag.String("timeseries", "", "write the flight-recorder time series as JSONL (view with hermes-trace -timeline)")
		tsCSVFile    = flag.String("timeseries-csv", "", "write the flight-recorder time series as CSV")
		tsUs         = flag.Int64("timeseries-us", 0, "flight-recorder sampling interval in microseconds (0 = 100us default)")
		tsCap        = flag.Int("timeseries-cap", 0, "max retained samples per series, ring-buffered (0 = default)")
		alertsOn     = flag.Bool("alerts", false, "arm the builtin SLO watchdog pack (goodput-dip, p99-fct-inflation, queue-saturation, gray-path-dwell)")
		alertRules   = flag.String("alert-rules", "", "arm user alert rules from a JSON file (array of rules; combines with -alerts)")
		alertLog     = flag.String("alert-log", "", "write the run's alert log as JSONL (view with hermes-trace -alerts)")
		subflows     = flag.Int("mptcp-subflows", 4, "subflows per logical flow (mptcp scheme)")
		repThresh    = flag.Int64("repflow-threshold", 0, "replicate flows smaller than this many bytes (repflow scheme; 0 = 100 KB default)")
		checks       = flag.Bool("checks", false, "arm the simulation invariant harness (engine + packet-conservation checks)")
		configFile   = flag.String("config", "", "load the full experiment Config from a JSON file (overrides other flags)")
		statusAddr   = flag.String("status", "", `serve the live status plane on this address while the run executes (e.g. ":8080"; see /api/progress, /metrics)`)
		perfOn       = flag.Bool("perf", false, "enable the performance observatory: engine self-profiling + runtime sampling, printed as a perf block")
		perfSample   = flag.Int("perf-sample", 0, "wall-time attribution stride: time 1 in N event fires (0 = 64 default)")
		soak         = flag.Bool("soak", false, "soak mode: periodic checkpoints + graceful SIGINT/SIGTERM (implies -checkpoint-dir, default interval 10ms sim time)")
		resumePath   = flag.String("resume", "", "resume from a checkpoint file, or the latest checkpoint in a directory (ignores experiment flags; the config is embedded)")
		ckptDir      = flag.String("checkpoint-dir", "", "write simulation checkpoints into this directory (resume with -resume)")
		ckptIvMs     = flag.Int64("checkpoint-interval-ms", 0, "checkpoint every this many milliseconds of simulated time")
		ckptAtMs     = flag.String("checkpoint-at-ms", "", "comma-separated simulated-time instants (ms) to checkpoint at")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		version      = flag.Bool("version", false, "print build version and VCS revision, then exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		stop, err := perf.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := perf.WriteHeapProfile(*memProfile); err != nil {
				log.Print(err)
			}
		}()
	}

	if *version {
		fmt.Println(hermes.VersionString())
		return
	}

	if *scenarioName == "list" {
		fmt.Println("builtin scenarios:", strings.Join(hermes.ScenarioNames(), " "))
		fmt.Println(`plus "random" (use -chaos-intensity and -seed)`)
		return
	}

	if *resumePath != "" &&
		(*configFile != "" || *traceFile != "" || *perfettoFile != "" || *tsFile != "" ||
			*tsCSVFile != "" || *reportFile != "" || *auditFile != "" || *telem) {
		log.Fatal("-resume replays the experiment from the config embedded in the checkpoint; it cannot be combined with -config, -telemetry or writer flags (-trace, -perfetto, -timeseries*, -report, -audit)")
	}

	var topo hermes.Topology
	switch *topoName {
	case "testbed":
		topo = hermes.TestbedTopology()
	case "large":
		topo = hermes.LargeScaleTopology()
	case "small":
		topo = hermes.Topology{Leaves: 4, Spines: 4, HostsPerLeaf: 8,
			HostRateBps: 10e9, FabricRateBps: 10e9, HostDelayNs: 2000, FabricDelayNs: 2000}
	default:
		log.Fatalf("unknown topology %q", *topoName)
	}

	if *sweepUs <= 0 {
		log.Fatalf("-sweep-us %d: the sweep interval must be a positive number of microseconds", *sweepUs)
	}

	cfg := hermes.Config{
		Topology:              topo,
		Scheme:                hermes.Scheme(*scheme),
		Workload:              *workload,
		WorkloadFile:          *wlFile,
		Load:                  *load,
		Flows:                 *flows,
		Seed:                  *seed,
		Protocol:              *protocol,
		FlowletTimeoutNs:      *flowlet * 1000,
		MaxFlowBytes:          *maxFlow,
		MeasureVisibility:     *visibility,
		MPTCPSubflows:         *subflows,
		RepFlowThresholdBytes: *repThresh,
		Failure: hermes.FailureSpec{
			Kind:     hermes.FailureKind(*failKind),
			Spine:    *spine,
			DropRate: *dropRate,
			Fraction: *frac, DegradedBps: *degBps,
			CutLeaf: *cutLeaf, CutSpine: *cutSpine,
			FlapPeriodNs: *flapUs * 1000, FlapDownNs: *flapDown * 1000,
			SrcLeaf: 0, DstLeaf: topo.Leaves - 1,
		},
	}

	switch {
	case *scenarioFile != "":
		data, err := os.ReadFile(*scenarioFile)
		if err != nil {
			log.Fatal(err)
		}
		var sc hermes.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			log.Fatalf("parse %s: %v", *scenarioFile, err)
		}
		cfg.Scenario = &sc
	case *scenarioName == "random":
		cfg.Scenario = hermes.RandomScenario(topo, *seed, *intensity)
	case *scenarioName != "":
		sc, err := hermes.BuiltinScenario(*scenarioName, topo)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Scenario = sc
	}

	traceOn := *traceFile != "" || *perfettoFile != ""
	tsOn := *tsFile != "" || *tsCSVFile != ""
	cfg.Trace = traceOn
	if *reportFile != "" || *auditFile != "" {
		*telem = true
	}
	cfg.Telemetry = *telem
	cfg.TelemetryIntervalNs = *sweepUs * 1000
	cfg.Checks = *checks
	if *perfOn {
		cfg.Perf = &hermes.PerfOptions{SampleEvery: *perfSample}
	}

	cfg.TimeSeries = tsOn
	cfg.TimeSeriesIntervalNs = *tsUs * 1000
	cfg.TimeSeriesCap = *tsCap

	if *alertsOn || *alertRules != "" {
		ac := &hermes.AlertsConfig{Builtin: *alertsOn}
		if *alertRules != "" {
			data, err := os.ReadFile(*alertRules)
			if err != nil {
				log.Fatal(err)
			}
			if err := json.Unmarshal(data, &ac.Rules); err != nil {
				log.Fatalf("parse %s: %v", *alertRules, err)
			}
			if err := hermes.ValidateAlertRules(ac.Rules); err != nil {
				log.Fatalf("%s: %v", *alertRules, err)
			}
		}
		cfg.Alerts = ac
	}

	if *configFile != "" {
		data, err := os.ReadFile(*configFile)
		if err != nil {
			log.Fatal(err)
		}
		var fileCfg hermes.Config
		if err := json.Unmarshal(data, &fileCfg); err != nil {
			log.Fatalf("parse %s: %v", *configFile, err)
		}
		if traceOn {
			fileCfg.Trace = true
		}
		if fileCfg.Scenario == nil {
			fileCfg.Scenario = cfg.Scenario
		}
		if tsOn {
			fileCfg.TimeSeries = true
		}
		if fileCfg.TimeSeriesIntervalNs == 0 {
			fileCfg.TimeSeriesIntervalNs = cfg.TimeSeriesIntervalNs
		}
		if fileCfg.TimeSeriesCap == 0 {
			fileCfg.TimeSeriesCap = cfg.TimeSeriesCap
		}
		if *checks {
			fileCfg.Checks = true
		}
		if *telem {
			// -report/-audit/-telemetry stay in force over a config file.
			fileCfg.Telemetry = true
			if fileCfg.TelemetryIntervalNs == 0 {
				fileCfg.TelemetryIntervalNs = cfg.TelemetryIntervalNs
			}
		}
		if fileCfg.Perf == nil {
			fileCfg.Perf = cfg.Perf
		}
		if fileCfg.Alerts == nil {
			fileCfg.Alerts = cfg.Alerts
		}
		cfg = fileCfg
	}

	// Checkpointing (flags stay in force over a -config file, like -checks).
	// -soak is the long-run shape: arm periodic checkpoints and rely on the
	// graceful-signal path below to leave a resumable checkpoint on Ctrl-C.
	if *soak && *ckptDir == "" {
		*ckptDir = "hermes-checkpoints"
	}
	if *ckptDir != "" {
		ck := &hermes.CheckpointConfig{Dir: *ckptDir, IntervalNs: *ckptIvMs * 1e6}
		if *ckptAtMs != "" {
			for _, s := range strings.Split(*ckptAtMs, ",") {
				ms, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					log.Fatalf("-checkpoint-at-ms %q: %v", *ckptAtMs, err)
				}
				ck.AtNs = append(ck.AtNs, int64(ms*1e6))
			}
		}
		if *soak && ck.IntervalNs == 0 && len(ck.AtNs) == 0 {
			ck.IntervalNs = 10e6
		}
		cfg.Checkpoint = ck
	}

	if *statusAddr != "" {
		st := hermes.NewStatus()
		st.Plan(1)
		srv, err := hermes.ServeStatus(*statusAddr, st)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "status plane on %s\n", srv.URL())
		cfg.Status = st
		// A -resume run builds its Config from the checkpoint (which cannot
		// carry a tracker); the process-wide default routes it here too.
		hermes.SetDefaultStatus(st)
	}

	// SIGINT/SIGTERM cancel the run at its next scheduling slice; with
	// checkpointing armed the run flushes one final interrupt checkpoint
	// before reporting, so a soak is resumable from the instant it died.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	hermes.SetDefaultRunContext(ctx)

	var res *hermes.Result
	var err error
	if *resumePath != "" {
		res, err = hermes.Restore(*resumePath)
	} else {
		res, err = hermes.Run(cfg)
	}
	var ie *hermes.InterruptedError
	if errors.As(err, &ie) {
		fmt.Fprintf(os.Stderr, "interrupted at t=%.1fms; checkpoint written to %s\n",
			float64(ie.Checkpoint.SimTimeNs)/1e6, ie.Checkpoint.Path)
		fmt.Fprintf(os.Stderr, "resume with: hermes-sim -resume %s\n", ie.Checkpoint.Path)
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, ci := range res.Checkpoints {
		fmt.Fprintf(os.Stderr, "checkpoint t=%.1fms written to %s (%d bytes)\n",
			float64(ci.SimTimeNs)/1e6, ci.Path, ci.Bytes)
	}
	if res.TraceCounts != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", res.TraceCounts)
		if *traceFile != "" {
			if err := writeFile(*traceFile, res.Trace.WriteJSONL); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace JSONL written to %s\n", *traceFile)
		}
		if *perfettoFile != "" {
			if err := writeFile(*perfettoFile, res.Trace.WritePerfetto); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "perfetto trace written to %s (open in ui.perfetto.dev)\n", *perfettoFile)
		}
	}
	if res.TimeSeries != nil {
		fmt.Fprintf(os.Stderr, "timeseries: %d samples, %d series, %d transitions (%d samples truncated, %d transitions dropped)\n",
			res.TimeSeries.Len(), len(res.TimeSeries.Names()), res.TimeSeries.Transitions.Len(),
			res.TimeSeries.TruncatedSamples(), res.TimeSeries.Transitions.Dropped())
		if *tsFile != "" {
			if err := writeFile(*tsFile, res.TimeSeries.WriteJSONL); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "timeseries JSONL written to %s (view with hermes-trace -timeline)\n", *tsFile)
		}
		if *tsCSVFile != "" {
			if err := writeFile(*tsCSVFile, res.TimeSeries.WriteCSV); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "timeseries CSV written to %s\n", *tsCSVFile)
		}
	}

	var report *hermes.Report
	if cfg.Telemetry {
		report, err = hermes.BuildReport(cfg, res)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *reportFile != "" {
		// Written artifacts carry provenance; the in-process report stays a
		// pure function of (config, seed).
		if mj, merr := json.Marshal(cfg); merr == nil {
			m := hermes.BuildManifest().WithConfig(mj, []int64{cfg.Seed})
			report.Manifest = &m
		}
		if err := writeReport(report, *reportFile); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *reportFile)
	}
	if *alertLog != "" {
		if res.Alerts == nil {
			log.Fatal("-alert-log needs the watchdog armed (-alerts, -alert-rules or Config.Alerts)")
		}
		f, err := os.Create(*alertLog)
		if err != nil {
			log.Fatal(err)
		}
		// The label the run carries on the status plane.
		label := fmt.Sprintf("%s/load %g/seed %d", res.Scheme, cfg.Load, cfg.Seed)
		if cfg.Scenario != nil {
			label = fmt.Sprintf("%s/%s/load %g/seed %d", res.Scheme, cfg.Scenario.Name, cfg.Load, cfg.Seed)
		}
		if err := hermes.WriteAlertLog(f, label, res.Alerts); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "alert log written to %s (view with hermes-trace -alerts)\n", *alertLog)
	}
	if *auditFile != "" {
		f, err := os.Create(*auditFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Telemetry.Audit.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "audit log (%d entries) written to %s\n",
			res.Telemetry.Audit.Len(), *auditFile)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("scheme=%s workload=%s load=%.2f flows=%d seed=%d\n",
		res.Scheme, res.Workload, res.Load, res.FCT.Flows, *seed)
	fmt.Printf("simulated %.1f ms, %d events\n",
		float64(res.SimDuration)/1e6, res.Events)
	fmt.Printf("%-24s %10s %10s %10s %10s\n", "bucket", "count", "mean(ms)", "p95(ms)", "p99(ms)")
	pr := func(name string, count int, mean, p95, p99 float64) {
		fmt.Printf("%-24s %10d %10.3f %10.3f %10.3f\n", name, count, mean, p95, p99)
	}
	pr("overall", res.FCT.Overall.Count, res.FCT.Overall.MeanMs(),
		float64(res.FCT.Overall.P95)/1e6, res.FCT.Overall.P99Ms())
	pr("small (<100KB)", res.FCT.Small.Count, res.FCT.Small.MeanMs(),
		float64(res.FCT.Small.P95)/1e6, res.FCT.Small.P99Ms())
	pr("medium", res.FCT.Medium.Count, res.FCT.Medium.MeanMs(),
		float64(res.FCT.Medium.P95)/1e6, res.FCT.Medium.P99Ms())
	pr("large (>10MB)", res.FCT.Large.Count, res.FCT.Large.MeanMs(),
		float64(res.FCT.Large.P95)/1e6, res.FCT.Large.P99Ms())
	if res.FCT.Slowdown.Count > 0 {
		fmt.Printf("slowdown: mean %.2f, p50 %.2f, p99 %.2f\n",
			res.FCT.Slowdown.Mean, res.FCT.Slowdown.P50, res.FCT.Slowdown.P99)
	}
	if res.FCT.Unfinished > 0 {
		fmt.Printf("unfinished: %d (%.2f%%)\n", res.FCT.Unfinished, 100*res.FCT.UnfinishedFrac)
	}
	if res.Scheme == hermes.SchemeHermes {
		fmt.Printf("hermes: reroutes=%d (timeout=%d failure=%d) probes=%d overhead=%.3f%%\n",
			res.Reroutes, res.TimeoutReroutes, res.FailureReroutes,
			res.ProbesSent, 100*res.ProbeOverhead)
	}
	if *visibility {
		fmt.Printf("visibility: switch-pair=%.3f host-pair=%.5f\n",
			res.VisibilitySwitchPair, res.VisibilityHostPair)
	}
	if res.Recovery != nil {
		ms := func(ns int64) string {
			if ns < 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fms", float64(ns)/1e6)
		}
		fmt.Printf("recovery: scenario=%s traffic-end=%.1fms\n",
			res.Recovery.Scenario, float64(res.Recovery.TrafficEndNs)/1e6)
		for _, e := range res.Recovery.Events {
			clear := "-"
			if e.ClearNs >= 0 {
				clear = fmt.Sprintf("%.1fms", float64(e.ClearNs)/1e6)
			}
			fmt.Printf("  %-28s onset=%.1fms clear=%s detect=%s reroute=%s dip(depth=%.2f dur=%s cost=%.1fGbps*ms) reconverge=%s restore=%s\n",
				e.Label, float64(e.OnsetNs)/1e6, clear,
				ms(e.TimeToDetectNs), ms(e.TimeToRerouteNs),
				e.DipDepth, ms(e.DipDurationNs), e.DipIntegralGbpsMs,
				ms(e.ReconvergeNs), ms(e.PathRestoreNs))
		}
	}
	if res.Alerts != nil {
		if err := hermes.RenderAlertText(os.Stdout, res.Alerts, 0); err != nil {
			log.Fatal(err)
		}
	}
	if res.Perf != nil {
		res.Perf.RenderText(os.Stdout)
	}
	if report != nil {
		fmt.Println()
		if err := report.RenderText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// writeReport serializes the report by extension: .csv gets the long-format
// CSV, anything else indented JSON.
func writeReport(rep *hermes.Report, path string) error {
	if strings.HasSuffix(path, ".csv") {
		return writeFile(path, rep.WriteCSV)
	}
	return writeFile(path, rep.WriteJSON)
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
