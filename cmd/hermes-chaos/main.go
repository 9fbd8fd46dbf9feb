// hermes-chaos runs the scheme x failure resilience matrix: every scheme
// under every chaos scenario across several seeds (plus one clean baseline
// per scheme), scored by detection latency, reroute latency, goodput-dip
// depth/duration/cost and p99 FCT inflation — the §5.3.2/§5.3.3 resilience
// questions as one scorecard.
//
// Examples:
//
//	hermes-chaos                                       # default matrix
//	hermes-chaos -schemes hermes,ecmp -scenarios spine-blackhole,multi
//	hermes-chaos -schemes hermes,reps,repflow,ecmp,presto -scenarios all
//	hermes-chaos -scenarios random -chaos-intensity 0.8 -seeds 5
//	hermes-chaos -json -out matrix.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/perf"
)

func main() {
	var (
		schemesFlag   = flag.String("schemes", "hermes,ecmp,presto,conga,letflow,reps,repflow", "comma-separated schemes to compare")
		scenariosFlag = flag.String("scenarios", "spine-blackhole,blackhole-recover,drop-recover,multi", `comma-separated builtin scenarios (see -list), "random", or "all" for every builtin`)
		listFlag      = flag.Bool("list", false, "list builtin scenarios and exit")
		topoName      = flag.String("topology", "chaos", `"chaos" (2x2, 1G hosts), "testbed" (2x2, 1G), "small" (4x4, 10G) or "large" (8x8, 10G)`)
		workload      = flag.String("workload", "web-search", "web-search|data-mining")
		load          = flag.Float64("load", 0.5, "offered load as a fraction of bisection bandwidth")
		flows         = flag.Int("flows", 100, "flows per run")
		seedBase      = flag.Int64("seed", 11, "base seed")
		seedCount     = flag.Int("seeds", 3, "seeds per cell")
		intensity     = flag.Float64("chaos-intensity", 0.5, `severity of the "random" scenario, 0..1`)
		workers       = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		width         = flag.Int("width", 40, "scorecard chart width")
		jsonOut       = flag.Bool("json", false, "emit the matrix as JSON instead of the text scorecard")
		outFile       = flag.String("out", "", "write the output to this file instead of stdout")
		ckptDir       = flag.String("checkpoint-dir", "", "on SIGINT/SIGTERM, each in-flight run writes a final checkpoint into this directory (resume individual runs with hermes-sim -resume <file>)")
		alertsOn      = flag.Bool("alerts", false, "arm the builtin SLO watchdog on every run; adds alert columns and the detect cross-check to the scorecard")
		alertLog      = flag.String("alert-log", "", "write every run's alert log as JSONL, in slot order (implies -alerts; view with hermes-trace -alerts)")
		statusAddr    = flag.String("status", "", `serve the live status plane on this address while the matrix runs (e.g. ":8080"; see /api/progress, /metrics, /api/series/stream)`)
		progress      = flag.Bool("progress", false, "print a progress line (runs done, ETA) to stderr every few seconds")
		progressSec   = flag.Int("progress-interval", 5, "seconds between -progress lines")
		perfOn        = flag.Bool("perf", false, "profile every matrix run and print the perf observatory aggregate to stderr")
		perfSample    = flag.Int("perf-sample", 0, "wall-time attribution stride: time 1 in N event fires (0 = 64 default)")
		cpuProfile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the matrix to this file")
		memProfile    = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		version       = flag.Bool("version", false, "print build version and VCS revision, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(hermes.VersionString())
		return
	}

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

	if *listFlag {
		fmt.Println("builtin scenarios:", strings.Join(hermes.ScenarioNames(), " "))
		fmt.Println(`plus "random" (use -chaos-intensity and -seed)`)
		return
	}

	var topo hermes.Topology
	switch *topoName {
	case "chaos":
		topo = hermes.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4,
			HostRateBps: 1e9, FabricRateBps: 2e9, HostDelayNs: 2000, FabricDelayNs: 2000}
	case "testbed":
		topo = hermes.TestbedTopology()
	case "small":
		topo = hermes.Topology{Leaves: 4, Spines: 4, HostsPerLeaf: 8,
			HostRateBps: 10e9, FabricRateBps: 10e9, HostDelayNs: 2000, FabricDelayNs: 2000}
	case "large":
		topo = hermes.LargeScaleTopology()
	default:
		log.Fatalf("unknown topology %q", *topoName)
	}

	var schemes []hermes.Scheme
	for _, s := range strings.Split(*schemesFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			schemes = append(schemes, hermes.Scheme(s))
		}
	}
	var scenarios []*hermes.Scenario
	for _, name := range strings.Split(*scenariosFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "random" {
			scenarios = append(scenarios, hermes.RandomScenario(topo, *seedBase, *intensity))
			continue
		}
		if name == "all" {
			for _, n := range hermes.ScenarioNames() {
				sc, err := hermes.BuiltinScenario(n, topo)
				if err != nil {
					log.Fatal(err)
				}
				scenarios = append(scenarios, sc)
			}
			continue
		}
		sc, err := hermes.BuiltinScenario(name, topo)
		if err != nil {
			log.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}

	mc := hermes.ChaosMatrixConfig{
		Base: hermes.Config{
			Topology: topo, Workload: *workload, Load: *load,
			Flows: *flows, DrainTimeoutNs: 300e6,
		},
		Schemes:   schemes,
		Scenarios: scenarios,
		Seeds:     hermes.Seeds(*seedBase, *seedCount),
		Options:   hermes.ParallelOptions{Workers: *workers},
	}

	if *ckptDir != "" {
		// Dir-only checkpointing: nothing is written on the happy path, but
		// an interrupted run flushes one resumable checkpoint before dying.
		mc.Base.Checkpoint = &hermes.CheckpointConfig{Dir: *ckptDir}
	}

	if *alertLog != "" {
		*alertsOn = true
		f, err := os.Create(*alertLog)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "alert log written to %s (view with hermes-trace -alerts)\n", *alertLog)
		}()
		mc.AlertLog = f
	}
	if *alertsOn {
		mc.Alerts = &hermes.AlertsConfig{Builtin: true}
	}

	// The status tracker also holds the -perf aggregate.
	var st *hermes.Status
	if *statusAddr != "" || *progress || *perfOn {
		st = hermes.NewStatus()
		mc.Base.Status = st
	}
	if *perfOn {
		mc.Base.Perf = &hermes.PerfOptions{SampleEvery: *perfSample}
		defer func() {
			s := st.PerfSummary()
			if s.RunsProfiled == 0 {
				return
			}
			fmt.Fprintf(os.Stderr,
				"perf: %d runs profiled, %d events (queue peak %d), sim/wall %.2fx, peak heap %.1f MiB, GC cycles %d\n",
				s.RunsProfiled, s.EventsTotal, s.QueuePeak, s.SimPerWall,
				float64(s.PeakHeapBytes)/(1<<20), s.Runtime.GCCycles)
		}()
	}
	if *statusAddr != "" {
		srv, err := hermes.ServeStatus(*statusAddr, st)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "status plane on %s\n", srv.URL())
	}
	if *progress {
		stop := st.StartLogging(os.Stderr, time.Duration(*progressSec)*time.Second)
		defer stop()
	}

	// SIGINT/SIGTERM drain the pool gracefully: the matrix comes back marked
	// Partial over whatever finished, the alert log holds the completed
	// runs, and (with -checkpoint-dir) every in-flight run leaves a final
	// checkpoint before dying.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	m, err := hermes.RunChaosMatrix(ctx, mc)
	if err != nil && m == nil {
		log.Fatal(err)
	}
	// Stamp provenance onto the emitted artifact (RunChaosMatrix itself
	// leaves Manifest nil so in-process matrices stay config-pure).
	if mj, merr := json.Marshal(mc); merr == nil {
		manifest := hermes.BuildManifest().WithConfig(mj, mc.Seeds)
		m.Manifest = &manifest
	}

	var w io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(m); encErr != nil {
			log.Fatal(encErr)
		}
	} else if renderErr := m.RenderText(w, *width); renderErr != nil {
		log.Fatal(renderErr)
	}
	if err != nil {
		// The partial artifact is flushed (os.File writes are unbuffered);
		// report the interruption and exit non-zero. Skipped defers only
		// lose the closing log lines.
		fmt.Fprintf(os.Stderr, "interrupted (%v); partial matrix emitted\n", err)
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "per-run interrupt checkpoints in %s (resume with hermes-sim -resume <file>)\n", *ckptDir)
		}
		os.Exit(130)
	}
}
