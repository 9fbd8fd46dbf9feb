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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/cmd/internal/cli"
)

var (
	schemesFlag   = flag.String("schemes", "hermes,ecmp,presto,conga,letflow,reps,repflow", "comma-separated schemes to compare")
	scenariosFlag = flag.String("scenarios", "spine-blackhole,blackhole-recover,drop-recover,multi", `comma-separated builtin scenarios (see -list), "random", or "all" for every builtin`)
	listFlag      = flag.Bool("list", false, "list builtin scenarios and exit")
	topoName      = flag.String("topology", "chaos", cli.TopologyUsage)
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
)

func main() { cli.Main(run) }

func run() error {
	if *listFlag {
		cli.PrintScenarios()
		return nil
	}

	topo, err := cli.Topology(*topoName)
	if err != nil {
		return err
	}

	var schemes []hermes.Scheme
	for _, s := range strings.Split(*schemesFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			schemes = append(schemes, hermes.Scheme(s))
		}
	}
	var names []string
	for _, name := range strings.Split(*scenariosFlag, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "all":
			names = append(names, hermes.ScenarioNames()...)
		default:
			names = append(names, name)
		}
	}
	var scenarios []*hermes.Scenario
	for _, name := range names {
		sc, err := cli.Scenario(name, topo, *seedBase, *intensity)
		if err != nil {
			return err
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
			return err
		}
		cli.AtExit(func() error {
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "alert log written to %s (view with hermes-trace -alerts)\n", *alertLog)
			return nil
		})
		mc.AlertLog = f
	}
	if *alertsOn {
		mc.Alerts = &hermes.AlertsConfig{Builtin: true}
	}

	// The status tracker also holds the -perf aggregate.
	if *statusAddr != "" || *progress || *perfOn {
		st, err := cli.StartStatus(*statusAddr, *progress, time.Duration(*progressSec)*time.Second)
		if err != nil {
			return err
		}
		if *perfOn {
			mc.Base.Perf = &hermes.PerfOptions{SampleEvery: *perfSample}
			cli.AtExit(func() error { st.PerfSummary().RenderText(os.Stderr); return nil })
		}
	}

	// SIGINT/SIGTERM drain the pool gracefully: the matrix comes back marked
	// Partial over whatever finished, the alert log holds the completed
	// runs, and (with -checkpoint-dir) every in-flight run leaves a final
	// checkpoint before dying.
	m, err := hermes.RunChaosMatrix(cli.SignalContext(), mc)
	if err != nil && m == nil {
		return err
	}
	// Stamp provenance onto the emitted artifact (RunChaosMatrix itself
	// leaves Manifest nil so in-process matrices stay config-pure).
	if mj, merr := json.Marshal(mc); merr == nil {
		manifest := hermes.BuildManifest().WithConfig(mj, mc.Seeds)
		m.Manifest = &manifest
	}

	emit := func(w io.Writer) error {
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(m)
		}
		return m.RenderText(w, *width)
	}
	var emitErr error
	if *outFile != "" {
		emitErr = cli.WriteFile(*outFile, emit)
	} else {
		emitErr = emit(os.Stdout)
	}
	if emitErr != nil {
		return emitErr
	}
	if err != nil {
		// The partial artifact is written; report the interruption.
		fmt.Fprintf(os.Stderr, "interrupted (%v); partial matrix emitted\n", err)
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "per-run interrupt checkpoints in %s (resume with hermes-sim -resume <file>)\n", *ckptDir)
		}
	}
	return err
}
