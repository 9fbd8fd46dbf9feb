// Failure example (the Fig 16/17 scenarios): one core switch either drops
// 2% of packets silently or blackholes half of the host pairs between two
// racks. Expect Hermes to detect both malfunctions and route around them
// (all flows finish, lowest FCT), ECMP to strand flows on the failed switch,
// and CONGA's utilization-based sensing to be fooled by the quiet-looking
// failed paths.
package main

import (
	"flag"
	"fmt"
	"log"

	hermes "github.com/hermes-repro/hermes"
)

func main() {
	flows := flag.Int("flows", 400, "flows per run")
	load := flag.Float64("load", 0.5, "offered load")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()

	topo := hermes.SmallTopology()
	schemes := []hermes.Scheme{
		hermes.SchemeECMP, hermes.SchemePresto, hermes.SchemeCONGA,
		hermes.SchemeLetFlow, hermes.SchemeHermes,
	}
	scenarios := []struct {
		name string
		spec hermes.FailureSpec
	}{
		{"silent random drops (2% at spine 1)",
			hermes.FailureSpec{Kind: hermes.FailureRandomDrop, Spine: 1, DropRate: 0.02}},
		{"packet blackhole (half of rack0->rack3 pairs at spine 1)",
			hermes.FailureSpec{Kind: hermes.FailureBlackhole, Spine: 1, SrcLeaf: 0, DstLeaf: 3}},
	}
	for _, sc := range scenarios {
		fmt.Printf("\n=== %s, web-search @ %.0f%% load ===\n", sc.name, *load*100)
		fmt.Printf("%-10s %12s %12s %12s\n", "scheme", "avg FCT(ms)", "p99(ms)", "unfinished")
		for _, sch := range schemes {
			res, err := hermes.Run(hermes.Config{
				Topology: topo, Scheme: sch, Workload: "web-search",
				Load: *load, Flows: *flows, Seed: *seed, Failure: sc.spec,
			})
			if err != nil {
				log.Fatalf("%s: %v", sch, err)
			}
			fmt.Printf("%-10s %12.3f %12.2f %9d/%d\n",
				sch, res.FCT.Overall.MeanMs(), res.FCT.Overall.P99Ms(),
				res.FCT.Unfinished, res.FCT.Flows)
		}
	}
}
