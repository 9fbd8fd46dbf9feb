package hermes

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
	"github.com/hermes-repro/hermes/internal/workload"
)

// newStack builds a minimal fabric + transport with ECMP for direct tests
// of internal generators.
func newStack(t *testing.T) (*sim.Engine, *net.Network, *transport.Transport) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 4, Spines: 4, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &lb.ECMP{Net: nw}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer { return e })
	return eng, nw, tr
}

func TestEdgeFlowletAndHulaRun(t *testing.T) {
	for _, sch := range []Scheme{SchemeEdgeFlowlet, SchemeHULA} {
		res := mustRun(t, Config{
			Topology: smallTopo(), Scheme: sch,
			Workload: "web-search", Load: 0.5, Flows: 120, Seed: 9,
		})
		if res.FCT.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished flows", sch, res.FCT.Unfinished)
		}
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := Config{
		Topology: smallTopo(), Scheme: SchemeECMP,
		Workload: "web-search", Load: 0.5, Flows: 60,
	}
	results, st, err := RunSeeds(cfg, Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || st.N != 3 {
		t.Fatalf("got %d results, stats N=%d", len(results), st.N)
	}
	if st.Min > st.Mean || st.Mean > st.Max {
		t.Fatalf("stats ordering broken: min=%v mean=%v max=%v", st.Min, st.Mean, st.Max)
	}
	if st.StdDev < 0 {
		t.Fatal("negative stddev")
	}
	// Different seeds should produce different means (heavy-tailed sizes).
	if st.Min == st.Max {
		t.Fatal("all seeds produced identical results")
	}
}

func TestRunSeedsEmpty(t *testing.T) {
	if _, _, err := RunSeeds(Config{}, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestSeedsHelper(t *testing.T) {
	s := Seeds(5, 4)
	want := []int64{5, 6, 7, 8}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Seeds(5,4) = %v", s)
		}
	}
}

func TestDeriveHermesParams(t *testing.T) {
	p, err := DeriveHermesParams(LargeScaleTopology())
	if err != nil {
		t.Fatal(err)
	}
	// §3.3 anchors: T_ECN = 40%, S in 100-800 KB, R = 30% of access link,
	// T_RTT_high within sane bounds for 10G fabrics (paper: 180 us).
	if p.TECN != 0.40 {
		t.Fatalf("TECN = %v", p.TECN)
	}
	if p.SBytes < 100_000 || p.SBytes > 800_000 {
		t.Fatalf("SBytes = %d out of the recommended range", p.SBytes)
	}
	if p.RBps != 0.3*10e9 {
		t.Fatalf("RBps = %v", p.RBps)
	}
	if p.TRTTHigh < 100_000 || p.TRTTHigh > 300_000 {
		t.Fatalf("TRTTHigh = %d ns, want ~180 us for a 10G fabric", p.TRTTHigh)
	}
	if _, err := DeriveHermesParams(Topology{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestTuneHermesImprovesOrKeepsScore(t *testing.T) {
	cfg := Config{
		Topology: smallTopo(),
		Workload: "data-mining", Load: 0.6, Flows: 60,
		Failure: FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
	}
	base, err := DeriveHermesParams(cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to two cheap dimensions to keep the test fast.
	dims := DefaultTuneDimensions(base)[:2]
	res, err := TuneHermes(cfg, dims, Seeds(1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || len(res.Trace) == 0 {
		t.Fatal("tuner did not evaluate any candidates")
	}
	// The tuned score can never be worse than every evaluated candidate.
	for _, step := range res.Trace {
		if step.Accepted && step.ScoreMs < res.ScoreMs {
			t.Fatalf("accepted step %.3f better than final %.3f", step.ScoreMs, res.ScoreMs)
		}
	}
	if res.String() == "" {
		t.Fatal("empty trace rendering")
	}
}

func TestIncastGenerator(t *testing.T) {
	// Drive the incast generator directly against a fresh internal stack.
	res := make(map[int]sim.Time)
	eng, nw, tr := newStack(t)
	ic := &workload.Incast{
		Net: nw, Tr: tr, Rng: sim.NewRNG(4),
		FanIn: 6, ChunkBytes: 64_000, Interval: 5 * sim.Millisecond, Events: 5,
		OnDone: func(ev int, dur sim.Time) { res[ev] = dur },
	}
	ic.Start()
	eng.Run(sim.Second)
	if ic.Started() != 5 {
		t.Fatalf("generated %d/5 incasts", ic.Started())
	}
	if len(res) != 5 {
		t.Fatalf("only %d/5 incast completions observed", len(res))
	}
	for ev, dur := range res {
		if dur <= 0 || dur > 100*sim.Millisecond {
			t.Fatalf("incast %d duration %v implausible", ev, dur)
		}
	}
}

func TestMPTCPSchemeRuns(t *testing.T) {
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeMPTCP,
		Workload: "web-search", Load: 0.5, Flows: 100, Seed: 9,
	})
	if res.FCT.Flows != 100 {
		t.Fatalf("recorded %d/100 logical flows", res.FCT.Flows)
	}
	if res.FCT.Unfinished != 0 {
		t.Fatalf("%d unfinished logical flows", res.FCT.Unfinished)
	}
}

func TestMPTCPIncastPenalty(t *testing.T) {
	// §5.1/§7: MPTCP suffers in incast because each logical flow opens
	// several connections. With heavy fan-in of small flows, MPTCP's
	// small-flow tail should not beat plain ECMP's.
	cfg := Config{
		Topology: smallTopo(), Workload: "web-search",
		Load: 0.8, Flows: flowCount(250, 120), Seed: 12, MPTCPSubflows: 8,
	}
	cfg.Scheme = SchemeECMP
	ecmp := mustRun(t, cfg)
	cfg.Scheme = SchemeMPTCP
	mp := mustRun(t, cfg)
	if mp.FCT.Small.P99 < ecmp.FCT.Small.P99/2 {
		t.Fatalf("MPTCP small-flow p99 (%v) implausibly better than ECMP (%v)",
			mp.FCT.Small.P99, ecmp.FCT.Small.P99)
	}
}

func TestTraceThroughFacade(t *testing.T) {
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeHermes,
		Workload: "web-search", Load: 0.5, Flows: 50, Seed: 2,
		Trace: true,
	})
	if res.TraceCounts["start"] != 50 || res.TraceCounts["done"] != 50 {
		t.Fatalf("trace counts = %v, want 50 starts and dones", res.TraceCounts)
	}
	var sb strings.Builder
	if err := res.Trace.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"kind":"place"`) {
		t.Fatal("no placement events in the JSONL stream")
	}
}

func TestTimelyProtocolThroughFacade(t *testing.T) {
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeHermes, Protocol: "timely",
		Workload: "web-search", Load: 0.4, Flows: 80, Seed: 3,
	})
	if res.FCT.Unfinished != 0 {
		t.Fatalf("%d unfinished flows under TIMELY", res.FCT.Unfinished)
	}
}

func TestFlapThroughFacade(t *testing.T) {
	// A flapping link must not strand flows for Hermes: detection routes
	// around the dips and quarantine expires after restoration.
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeHermes,
		Workload: "web-search", Load: 0.4, Flows: 150, Seed: 5,
		Failure: FailureSpec{
			Kind: FailureFlap, CutLeaf: 0, CutSpine: 1,
			FlapPeriodNs: int64(100e6), FlapDownNs: int64(40e6),
		},
	})
	if res.FCT.Unfinished != 0 {
		t.Fatalf("%d flows stranded by a flapping link", res.FCT.Unfinished)
	}
}

func TestGoodputReported(t *testing.T) {
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeECMP,
		Workload: "web-search", Load: 0.5, Flows: 100, Seed: 1,
	})
	if res.GoodputGbps <= 0 {
		t.Fatal("goodput not reported")
	}
	if res.FabricUtilization <= 0 || res.FabricUtilization > 1.2 {
		t.Fatalf("fabric utilization %.3f implausible", res.FabricUtilization)
	}
}

func TestWCMPSchemeBeatsECMPUnderAsymmetry(t *testing.T) {
	cfg := Config{
		Topology: smallTopo(), Workload: "web-search", Load: 0.6, Flows: 250, Seed: 4,
		Failure: FailureSpec{Kind: FailureDegrade, Fraction: 0.2, DegradedBps: 2e9},
	}
	cfg.Scheme = SchemeECMP
	e := mustRun(t, cfg)
	cfg.Scheme = SchemeWCMP
	w := mustRun(t, cfg)
	if w.FCT.Overall.Mean >= e.FCT.Overall.Mean {
		t.Fatalf("WCMP (%.3f ms) not better than ECMP (%.3f ms) on an asymmetric fabric",
			w.FCT.Overall.MeanMs(), e.FCT.Overall.MeanMs())
	}
}

func TestTestbedCableCut(t *testing.T) {
	// The testbed has 4 x 1G paths; cutting one cable must leave every
	// scheme functional with 3 paths and Hermes ahead of ECMP on average.
	// Single testbed-scale runs are heavy-tail noisy, so compare seed
	// averages (the paper averages 5 runs, §5.1).
	cfg := Config{
		Topology: TestbedTopology(), Workload: "web-search",
		Load: 0.5, Flows: flowCount(500, 250),
		Failure: FailureSpec{Kind: FailureCutCable, CutLeaf: 1, CutSpine: 1},
	}
	seeds := Seeds(1, 2)
	cfg.Scheme = SchemeECMP
	eRes, eStats, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemeHermes
	hRes, hStats, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if eRes[i].FCT.Unfinished != 0 || hRes[i].FCT.Unfinished != 0 {
			t.Fatal("cable cut stranded flows")
		}
	}
	// The seed-averaged ranking needs the full replay count to be stable;
	// short mode (the -race pass) only exercises the scenario.
	if !testing.Short() && hStats.Mean >= eStats.Mean {
		t.Fatalf("Hermes %.2f ms not ahead of ECMP %.2f ms after cable cut (seed avg)",
			hStats.Mean, eStats.Mean)
	}
}

func TestRunSeedsMatchesSequential(t *testing.T) {
	cfg := Config{
		Topology: smallTopo(), Scheme: SchemeHermes,
		Workload: "web-search", Load: 0.5, Flows: 60,
	}
	par, _, err := RunSeeds(cfg, Seeds(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range Seeds(1, 4) {
		c := cfg
		c.Seed = s
		seq, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].FCT.Overall.Mean != seq.FCT.Overall.Mean || par[i].Events != seq.Events {
			t.Fatalf("seed %d: parallel run diverged from sequential", s)
		}
	}
}

func TestDegradeSpineHeterogeneity(t *testing.T) {
	// One slow spine (the §2.1 heterogeneous-device asymmetry): every
	// scheme must still finish; Hermes must beat ECMP.
	cfg := Config{
		Topology: smallTopo(), Workload: "web-search", Load: 0.6, Flows: 250, Seed: 6,
		Failure: FailureSpec{Kind: FailureDegradeSpine, Spine: 2, DegradedBps: 2e9},
	}
	cfg.Scheme = SchemeECMP
	e := mustRun(t, cfg)
	cfg.Scheme = SchemeHermes
	h := mustRun(t, cfg)
	if e.FCT.Unfinished+h.FCT.Unfinished != 0 {
		t.Fatal("stranded flows under a slow spine")
	}
	if h.FCT.Overall.Mean >= e.FCT.Overall.Mean {
		t.Fatalf("Hermes %.3f ms not ahead of ECMP %.3f ms with a slow spine",
			h.FCT.Overall.MeanMs(), e.FCT.Overall.MeanMs())
	}
}

func TestQueueFactorChangesDynamics(t *testing.T) {
	shallow := smallTopo()
	shallow.QueueFactor = 2
	deep := smallTopo()
	deep.QueueFactor = 8
	cfg := Config{Workload: "web-search", Load: 0.8, Flows: 200, Seed: 3, Scheme: SchemeECMP}
	cfg.Topology = shallow
	a := mustRun(t, cfg)
	cfg.Topology = deep
	b := mustRun(t, cfg)
	if a.FCT.Overall.Mean == b.FCT.Overall.Mean {
		t.Fatal("queue factor had no effect at 80% load")
	}
}

func TestSwitchSchemesOnCabledFabric(t *testing.T) {
	// CONGA/LetFlow/DRILL/HULA must handle multi-cable path spaces (their
	// tables are sized by NPaths, not by spine count).
	for _, sch := range []Scheme{SchemeCONGA, SchemeLetFlow, SchemeDRILL, SchemeHULA} {
		res := mustRun(t, Config{
			Topology: TestbedTopology(), Scheme: sch,
			Workload: "web-search", Load: 0.4, Flows: 100, Seed: 3,
		})
		if res.FCT.Unfinished != 0 {
			t.Fatalf("%s stranded %d flows on the cabled testbed", sch, res.FCT.Unfinished)
		}
	}
}

func TestWorkloadFileThroughFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "uniform.cdf")
	if err := os.WriteFile(path, []byte("10000 0\n50000 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{
		Topology: smallTopo(), Scheme: SchemeECMP,
		WorkloadFile: path, Workload: "ignored-when-file-set",
		Load: 0.4, Flows: 80, Seed: 1,
	})
	if res.FCT.Flows != 80 || res.FCT.Unfinished != 0 {
		t.Fatal("custom workload run failed")
	}
	// Every flow is 10-50 KB: no large bucket entries.
	if res.FCT.Large.Count != 0 {
		t.Fatalf("%d large flows from a <=50KB distribution", res.FCT.Large.Count)
	}
	bad := Config{Topology: smallTopo(), Scheme: SchemeECMP,
		WorkloadFile: filepath.Join(t.TempDir(), "missing.cdf"),
		Load:         0.4, Flows: 10}
	if _, err := Run(bad); err == nil {
		t.Fatal("missing workload file accepted")
	}
}
