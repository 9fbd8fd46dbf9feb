package main

import (
	"fmt"
	"os"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/cmd/internal/cli"
)

func init() {
	register("chaos", "[extra] chaos resilience matrix: schemes x failure scenarios x seeds, recovery scorecard (§5.3.2/§5.3.3)", chaosExp)
}

var chaosScenarioNames = []string{"spine-blackhole", "blackhole-recover", "drop-recover", "multi"}

func chaosExp(o options) {
	topo := hermes.ChaosTopology()
	var scenarios []*hermes.Scenario
	for _, name := range chaosScenarioNames {
		sc, err := hermes.BuiltinScenario(name, topo)
		if err != nil {
			cli.Exit(err)
		}
		scenarios = append(scenarios, sc)
	}
	flows := o.flows
	if flows > 200 {
		flows = 200 // recovery metrics saturate long before bench's default
	}
	m, err := hermes.RunChaosMatrix(benchCtx, hermes.ChaosMatrixConfig{
		Base: hermes.Config{
			Topology: topo, Workload: "web-search", Load: 0.5,
			Flows: flows, DrainTimeoutNs: 300e6,
		},
		Schemes:   failureSchemes,
		Scenarios: scenarios,
		Seeds:     hermes.Seeds(o.seed, 3),
	})
	if err != nil && m == nil {
		cli.Exit(err)
	}
	if renderErr := m.RenderText(os.Stdout, 40); renderErr != nil {
		cli.Exit(renderErr)
	}

	// Long-format CSV mirror: one row per matrix cell.
	beginCSVTable([]string{"scheme", "scenario", "detect_ms", "reroute_ms",
		"worst_dip_ms", "dip_cost_gbps_ms", "p99_ms", "p99_inflation_pct", "unfinished"})
	for _, c := range m.Cells {
		csvRow([]string{string(c.Scheme), c.Scenario,
			fmt.Sprintf("%.3f", c.MeanDetectMs), fmt.Sprintf("%.3f", c.MeanRerouteMs),
			fmt.Sprintf("%.3f", c.WorstDipMs.Mean), fmt.Sprintf("%.3f", c.DipIntegral.Mean),
			fmt.Sprintf("%.3f", c.P99Ms.Mean), fmt.Sprintf("%.2f", c.P99InflationPct),
			fmt.Sprintf("%d", c.Unfinished)})
	}
	exitOnError(err)
}
