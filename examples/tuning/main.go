// Tuning example: the paper leaves automatic Hermes parameter configuration
// as future work (§3.3, §6). This example derives the Table 4 defaults for a
// fabric, runs the coordinate-descent auto-tuner on an asymmetric
// data-mining workload, and compares default vs tuned performance across
// seeds.
package main

import (
	"flag"
	"fmt"
	"log"

	hermes "github.com/hermes-repro/hermes"
)

func main() {
	flows := flag.Int("flows", 250, "flows per tuning run")
	seeds := flag.Int("seeds", 2, "seeds per candidate evaluation")
	passes := flag.Int("passes", 1, "coordinate-descent passes")
	flag.Parse()

	topo := hermes.SmallTopology()
	cfg := hermes.Config{
		Topology: topo, Scheme: hermes.SchemeHermes,
		Workload: "data-mining", Load: 0.6, Flows: *flows,
		Failure: hermes.FailureSpec{Kind: hermes.FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
	}

	base, err := hermes.DeriveHermesParams(topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived defaults (§3.3): TRTTHigh=%dus DeltaRTT=%dus DeltaECN=%.2f S=%dKB R=%.1fGbps\n",
		base.TRTTHigh/1000, base.DeltaRTT/1000, base.DeltaECN, base.SBytes/1000, base.RBps/1e9)

	_, defStats, err := hermes.RunSeeds(cfg, hermes.Seeds(100, *seeds))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default params: avg FCT %.3f ms (stddev %.3f over %d seeds)\n\n",
		defStats.Mean, defStats.StdDev, defStats.N)

	fmt.Println("tuning (coordinate descent over the Table 4 knobs)...")
	res, err := hermes.TuneHermes(cfg, nil, hermes.Seeds(1, *seeds), *passes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.String())

	// Validate on held-out seeds.
	tuned := cfg
	tuned.HermesParams = &res.Params
	_, tunedStats, err := hermes.RunSeeds(tuned, hermes.Seeds(100, *seeds))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out comparison: default %.3f ms vs tuned %.3f ms (%+.1f%%)\n",
		defStats.Mean, tunedStats.Mean,
		100*(tunedStats.Mean-defStats.Mean)/defStats.Mean)
	p := res.Params
	fmt.Printf("tuned params: TRTTHigh=%dus DeltaRTT=%dus DeltaECN=%.2f S=%dKB R=%.1fGbps\n",
		p.TRTTHigh/1000, p.DeltaRTT/1000, p.DeltaECN, p.SBytes/1000, p.RBps/1e9)
}
