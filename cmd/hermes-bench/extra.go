package main

import (
	"fmt"
	"sort"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/cmd/internal/cli"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
	"github.com/hermes-repro/hermes/internal/workload"
)

func init() {
	register("incast", "[extra] partition/aggregate microbursts across schemes (§6 discussion)", incastExp)
	register("tune", "[extra] automatic Hermes parameter tuning (§3.3/§6 future work)", tuneExp)
	register("schemes", "[extra] full scheme roster incl. DRB/DRILL/FlowBender/Edge-Flowlet/HULA", allSchemesExp)
}

// incastExp measures the completion time of synchronized fan-in bursts under
// each scheme, with background web-search traffic. The paper notes Hermes
// needs one RTT to sense and so does not directly handle microbursts —
// per-packet local schemes (DRILL, packet spraying) should shine here.
func incastExp(o options) {
	type schemeSetup struct {
		name  string
		setup func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer
	}
	setups := []schemeSetup{
		{"ecmp", func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer {
			e := &lb.ECMP{Net: nw}
			return func(*net.Host) transport.Balancer { return e }
		}},
		{"presto", func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer {
			return func(*net.Host) transport.Balancer {
				return &lb.Spray{Net: nw, SchemeName: "Presto*", WeightByCapacity: true}
			}
		}},
		{"drill", func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer {
			for l := range nw.Leaves {
				lb.NewDRILL(nw, l, rng)
			}
			return func(*net.Host) transport.Balancer { return &lb.PassThrough{Scheme: "DRILL"} }
		}},
		{"conga", func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer {
			lb.InstallConga(nw, rng, lb.DefaultCongaParams())
			return func(*net.Host) transport.Balancer { return &lb.PassThrough{Scheme: "CONGA"} }
		}},
		{"hermes", func(nw *net.Network, rng *sim.RNG) func(h *net.Host) transport.Balancer {
			p := core.DefaultParams(nw)
			mons := make([]*core.Monitor, nw.Cfg.Leaves)
			agents := make([]*net.Host, nw.Cfg.Leaves)
			for l := range mons {
				mons[l] = core.NewMonitor(nw, l, p)
				agents[l] = nw.Hosts[l*nw.Cfg.HostsPerLeaf]
			}
			core.InstallProbeResponders(nw)
			for l := range mons {
				core.NewProber(mons[l], rng, agents)
			}
			return func(h *net.Host) transport.Balancer { return core.New(mons[h.Leaf], rng, h.ID) }
		}},
	}

	fmt.Printf("%-10s %14s %14s %14s\n", "scheme", "mean (ms)", "p50 (ms)", "worst (ms)")
	for _, su := range setups {
		eng := sim.NewEngine()
		rng := sim.NewRNG(o.seed)
		topo := simTopo(o)
		nw, err := net.NewLeafSpine(eng, rng, net.Config{
			Leaves: topo.Leaves, Spines: topo.Spines, HostsPerLeaf: topo.HostsPerLeaf,
			HostRateBps: topo.HostRateBps, FabricRateBps: topo.FabricRateBps,
			HostDelay: topo.HostDelayNs, FabricDelay: topo.FabricDelayNs,
		})
		if err != nil {
			cli.Exit(err)
		}
		tr := transport.New(nw, transport.DefaultOptions(), su.setup(nw, rng))

		// Background load at 40%.
		gen := &workload.Generator{Net: nw, Tr: tr, Rng: rng,
			Dist: workload.WebSearch, Load: 0.4, MaxFlows: o.flows / 2}
		gen.Start()

		var durs []float64
		ic := &workload.Incast{
			Net: nw, Tr: tr, Rng: rng,
			FanIn: 16, ChunkBytes: 64_000, Interval: 2 * sim.Millisecond, Events: 50,
			OnDone: func(ev int, d sim.Time) { durs = append(durs, float64(d)/1e6) },
		}
		ic.Start()
		eng.Run(3 * sim.Second)

		if len(durs) == 0 {
			fmt.Printf("%-10s no incasts completed\n", su.name)
			continue
		}
		sort.Float64s(durs)
		var sum float64
		for _, d := range durs {
			sum += d
		}
		fmt.Printf("%-10s %14.3f %14.3f %14.3f\n", su.name,
			sum/float64(len(durs)), durs[len(durs)/2], durs[len(durs)-1])
	}
	fmt.Println("expected shape: per-packet local schemes handle the burst itself best;")
	fmt.Println("Hermes needs >= 1 RTT to sense, so it is not a microburst solution (§6).")
}

// tuneExp runs the automatic parameter tuner the paper leaves as future
// work, on the asymmetric data-mining scenario.
func tuneExp(o options) {
	cfg := hermes.Config{
		Topology: simTopo(o), Workload: "data-mining",
		Load: 0.6, Flows: o.flows / 2, Failure: degrade(),
	}
	base, err := hermes.DeriveHermesParams(cfg.Topology)
	if err != nil {
		cli.Exit(err)
	}
	fmt.Printf("derived defaults: TRTTHigh=%dus DeltaRTT=%dus DeltaECN=%.2f S=%dKB R=%.1fGbps\n",
		base.TRTTHigh/1000, base.DeltaRTT/1000, base.DeltaECN, base.SBytes/1000, base.RBps/1e9)
	res, err := hermes.TuneHermes(cfg, nil, hermes.Seeds(o.seed, 2), 1)
	exitOnError(err)
	fmt.Print(res.String())
	p := res.Params
	fmt.Printf("tuned:            TRTTHigh=%dus DeltaRTT=%dus DeltaECN=%.2f S=%dKB R=%.1fGbps\n",
		p.TRTTHigh/1000, p.DeltaRTT/1000, p.DeltaECN, p.SBytes/1000, p.RBps/1e9)
}

// allSchemesExp runs the complete roster (including the schemes the paper
// lists in Table 1 but does not plot) on the symmetric baseline.
func allSchemesExp(o options) {
	schemes := hermes.Schemes()
	cfgs := make([]hermes.Config, len(schemes))
	for i, sch := range schemes {
		cfgs[i] = hermes.Config{
			Topology: simTopo(o), Scheme: sch, Workload: "web-search",
			Load: 0.6, Flows: o.flows, Seed: o.seed,
		}
	}
	rs, err := runAll(cfgs...)
	fmt.Printf("%-14s %12s %12s %14s\n", "scheme", "avg (ms)", "small (ms)", "small p99(ms)")
	for i, res := range rs {
		if res != nil {
			fmt.Printf("%-14s %12.3f %12.3f %14.3f\n", schemes[i],
				res.FCT.Overall.MeanMs(), res.FCT.Small.MeanMs(), res.FCT.Small.P99Ms())
		}
	}
	exitOnError(err)
}

func init() {
	register("scaling", "[extra] Hermes vs ECMP across fabric sizes; probe overhead scaling", scalingExp)
}

// scalingExp sweeps the fabric size at fixed per-link load, reporting how
// the Hermes/ECMP gap and the probing overhead evolve — the Table 6
// scalability argument measured rather than computed.
func scalingExp(o options) {
	sizes := []int{2, 4, 6, 8}
	var cfgs []hermes.Config
	for _, size := range sizes {
		cfg := hermes.Config{
			Topology: hermes.Topology{
				Leaves: size, Spines: size, HostsPerLeaf: 8,
				HostRateBps: 10e9, FabricRateBps: 10e9,
				HostDelayNs: 2000, FabricDelayNs: 2000,
			},
			Workload: "web-search", Load: 0.6,
			Flows: o.flows * size / 4, // keep per-pair pressure comparable
			Seed:  o.seed,
		}
		for _, sch := range []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeHermes} {
			cfg.Scheme = sch
			cfgs = append(cfgs, cfg)
		}
	}
	rs, err := runAll(cfgs...)
	fmt.Printf("%-14s %12s %12s %12s %14s\n",
		"fabric", "ecmp (ms)", "hermes (ms)", "gain", "probe ovh")
	for i, size := range sizes {
		e, h := rs[2*i], rs[2*i+1]
		if e == nil || h == nil {
			continue
		}
		gain := (e.FCT.Overall.Mean - h.FCT.Overall.Mean) / e.FCT.Overall.Mean
		fmt.Printf("%8dx%d     %12.3f %12.3f %11.1f%% %13.3f%%\n",
			size, size, e.FCT.Overall.MeanMs(), h.FCT.Overall.MeanMs(),
			100*gain, 100*h.ProbeOverhead)
	}
	exitOnError(err)
	fmt.Println("expected shape: the per-agent probe overhead stays a small fraction that")
	fmt.Println("grows only with the leaf count (rack agents); the Hermes-vs-ECMP gain is")
	fmt.Println("noisy at fixed per-pair flow counts — raise -flows for stable gains.")
}

func init() {
	register("transports", "[§5.4] different transport protocols: DCTCP vs TCP (and TIMELY ext.)", transportsExp)
}

// transportsExp reproduces the §5.4 "different transport protocols" study:
// with plain TCP (no ECN) Hermes senses by RTT only; the paper reports it
// within 10-25% of CONGA on web-search and near-identical on data-mining.
// TIMELY is this repository's extension.
func transportsExp(o options) {
	protos := []string{"dctcp", "reno", "timely"}
	schemes := []hermes.Scheme{hermes.SchemeECMP, hermes.SchemeCONGA, hermes.SchemeHermes}
	var cfgs []hermes.Config
	for _, proto := range protos {
		for _, sch := range schemes {
			for _, wl := range bothWorkloads {
				cfg := hermes.Config{
					Topology: simTopo(o), Scheme: sch, Workload: wl, Protocol: proto,
					Load: 0.6, Flows: o.flows, Seed: o.seed, Failure: degrade(),
				}
				if sch == hermes.SchemeCONGA && proto != "dctcp" {
					// §5.4 uses a 500us flowlet timeout for bursty TCP.
					cfg.FlowletTimeoutNs = 500_000
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	rs, err := runAll(cfgs...)
	for _, proto := range protos {
		fmt.Printf("\n[%s] overall avg FCT (ms) @60%% load, asymmetric fabric:\n", proto)
		fmt.Printf("%-10s %14s %14s\n", "scheme", "web-search", "data-mining")
		for _, sch := range schemes {
			ws, dm := rs[0], rs[1]
			rs = rs[2:]
			if ws != nil && dm != nil {
				fmt.Printf("%-10s %14.3f %14.3f\n", sch, ws.FCT.Overall.MeanMs(), dm.FCT.Overall.MeanMs())
			}
		}
	}
	exitOnError(err)
	fmt.Println("expected shape: orderings persist without ECN; Hermes trails CONGA a bit")
	fmt.Println("more under bursty TCP (more flowlet gaps for CONGA to exploit).")
}

func init() {
	register("fig15q", "[extra] fig15 sweep at shallow vs deep buffers (divergence hypothesis)", fig15q)
}

// fig15q re-runs the CONGA flowlet-timeout sweep at two buffer depths. The
// paper's 50us penalty (congestion mismatch) depends on mismatch-induced
// queue spikes turning into drops: deep buffers absorb them, shallow ones
// do not — which is the hypothesis EXPERIMENTS.md offers for the Fig 15
// divergence.
func fig15q(o options) {
	flowletSweep(o, []int{5, 2}, []string{"\nqueue depth = 5x ECN threshold:", "\nqueue depth = 2x ECN threshold:"})
}
