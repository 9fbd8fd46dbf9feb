// MPTCP example: the paper discusses MPTCP (§5.1, §7) but could not
// simulate it. This example runs the comparison the paper wanted: MPTCP vs
// single-path schemes on a symmetric fabric (where subflow multipathing
// shines) and under heavy incast-prone load (where maintaining several
// connections per flow backfires, §7).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"sort"

	hermes "github.com/hermes-repro/hermes"
)

func main() {
	flows := flag.Int("flows", 400, "flows per run")
	subflows := flag.Int("subflows", 4, "MPTCP subflows per logical flow")
	flag.Parse()

	topo := hermes.Topology{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelayNs: 2000, FabricDelayNs: 2000,
	}

	fmt.Printf("=== symmetric fabric, web-search @ 60%% (MPTCP with %d subflows) ===\n", *subflows)
	schemes := []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeMPTCP, hermes.SchemeCONGA, hermes.SchemeHermes}
	seeds := hermes.Seeds(1, 2)
	var cfgs []hermes.Config
	for _, sch := range schemes {
		for _, seed := range seeds {
			cfgs = append(cfgs, hermes.Config{
				Topology: topo, Scheme: sch, Workload: "web-search",
				Load: 0.6, Flows: *flows, Seed: seed, MPTCPSubflows: *subflows,
			})
		}
	}
	results, err := hermes.RunConfigs(context.Background(), cfgs, hermes.ParallelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Rank the schemes by mean FCT over their seeds (results are
	// scheme-major), fastest first and normalized to the fastest.
	type row struct {
		scheme       hermes.Scheme
		mean, stddev float64
	}
	var rows []row
	n := float64(len(seeds))
	for i, sch := range schemes {
		var sum, sumSq float64
		for _, res := range results[i*len(seeds) : (i+1)*len(seeds)] {
			x := res.FCT.Overall.MeanMs()
			sum, sumSq = sum+x, sumSq+x*x
		}
		mean := sum / n
		rows = append(rows, row{sch, mean, math.Sqrt(math.Max(sumSq/n-mean*mean, 0))})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].mean < rows[j].mean })
	fmt.Printf("%-14s %12s %10s %10s %8s\n", "scheme", "avg FCT(ms)", "stddev", "vs best", "seeds")
	for _, r := range rows {
		fmt.Printf("%-14s %12.3f %10.3f %9.2fx %8d\n", r.scheme, r.mean, r.stddev, r.mean/rows[0].mean, len(seeds))
	}

	fmt.Printf("\n=== same fabric @ 85%% load: small-flow tail ===\n")
	fmt.Printf("%-10s %14s %16s\n", "scheme", "small avg (ms)", "small p99 (ms)")
	for _, sch := range []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeMPTCP, hermes.SchemeHermes} {
		res, err := hermes.Run(hermes.Config{
			Topology: topo, Scheme: sch, Workload: "web-search",
			Load: 0.85, Flows: *flows, Seed: 3, MPTCPSubflows: *subflows,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14.3f %16.3f\n", sch,
			res.FCT.Small.MeanMs(), res.FCT.Small.P99Ms())
	}
	fmt.Println("\nexpected: MPTCP competitive on overall FCT (free multipathing, no")
	fmt.Println("congestion mismatch — subflows never reroute). The §7 incast penalty")
	fmt.Println("(several connections per flow) appears under synchronized fan-in")
	fmt.Println("rather than plain high load: see `hermes-bench -exp incast`.")
}
