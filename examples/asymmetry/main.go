// Asymmetry example (the Fig 13/14 scenario): 20% of leaf-spine links are
// degraded from 10 Gbps to 2 Gbps and every scheme is run over both
// workloads. Expect congestion-aware schemes to beat ECMP broadly, Hermes to
// lead on data-mining (timely rerouting resolves large-flow collisions that
// flowlet-based schemes cannot), and CONGA to lead on web-search (its
// in-switch visibility places bursts of small flows better).
package main

import (
	"flag"
	"fmt"
	"log"

	hermes "github.com/hermes-repro/hermes"
)

func main() {
	flows := flag.Int("flows", 500, "flows per run")
	load := flag.Float64("load", 0.6, "offered load (fraction of intact bisection)")
	seed := flag.Int64("seed", 3, "random seed")
	flag.Parse()

	topo := hermes.SmallTopology()
	schemes := []hermes.Scheme{
		hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
		hermes.SchemeLetFlow, hermes.SchemeCLOVE, hermes.SchemeHermes,
	}
	for _, wl := range []string{"web-search", "data-mining"} {
		fmt.Printf("\n=== %s @ %.0f%% load, 20%% of fabric links degraded to 2 Gbps ===\n", wl, *load*100)
		fmt.Printf("%-10s %12s %12s %14s %12s\n", "scheme", "avg FCT(ms)", "small(ms)", "small p99(ms)", "large(ms)")
		for _, sch := range schemes {
			res, err := hermes.Run(hermes.Config{
				Topology: topo, Scheme: sch, Workload: wl,
				Load: *load, Flows: *flows, Seed: *seed,
				Failure: hermes.FailureSpec{
					Kind: hermes.FailureDegrade, Fraction: 0.2, DegradedBps: 2e9,
				},
			})
			if err != nil {
				log.Fatalf("%s: %v", sch, err)
			}
			fmt.Printf("%-10s %12.3f %12.3f %14.3f %12.2f\n",
				sch, res.FCT.Overall.MeanMs(), res.FCT.Small.MeanMs(),
				res.FCT.Small.P99Ms(), res.FCT.Large.MeanMs())
		}
	}
}
