package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/chaos"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/sim"
)

func chaosConfig(scheme Scheme, scenario *Scenario) Config {
	return Config{
		Topology: ChaosTopology(), Scheme: scheme,
		Workload: "web-search", Load: 0.5,
		Flows: flowCount(60, 40), Seed: 11,
		Scenario:       scenario,
		DrainTimeoutNs: 300e6,
	}
}

// TestChaosBlackholeRecoveryAcceptance reproduces the §5.3.3 ordering under
// the scenario engine: with an identical blackhole timeline and seed, Hermes
// detects and reroutes within a few RTOs while ECMP and Presto* — blind to
// path health — stay in the goodput dip long after (Presto* until traffic
// ends). The acceptance bound: Hermes's detection and reroute latencies are
// finite and at least 5x smaller than the baselines' dip durations.
func TestChaosBlackholeRecoveryAcceptance(t *testing.T) {
	scenario, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	recoveryOf := func(scheme Scheme) *EventRecovery {
		res := mustRun(t, chaosConfig(scheme, scenario))
		if res.Recovery == nil || len(res.Recovery.Events) != 1 {
			t.Fatalf("%s: Recovery missing or wrong arity: %+v", scheme, res.Recovery)
		}
		e := &res.Recovery.Events[0]
		t.Logf("%-8s detect=%6.2fms reroute=%6.2fms dip: depth=%.2f dur=%6.2fms integral=%.1f Gbps*ms",
			scheme, float64(e.TimeToDetectNs)/1e6, float64(e.TimeToRerouteNs)/1e6,
			e.DipDepth, float64(e.DipDurationNs)/1e6, e.DipIntegralGbpsMs)
		return e
	}

	hermes := recoveryOf(SchemeHermes)
	if hermes.TimeToDetectNs < 0 {
		t.Fatal("hermes never detected the blackhole")
	}
	if hermes.TimeToRerouteNs < 0 {
		t.Fatal("hermes never rerouted off the blackholed paths")
	}

	for _, blind := range []Scheme{SchemeECMP, SchemePresto} {
		e := recoveryOf(blind)
		if e.TimeToDetectNs >= 0 {
			t.Errorf("%s claims a detection transition; it has no path-state machine", blind)
		}
		if e.DipDurationNs <= 0 {
			t.Fatalf("%s rode through a spine blackhole (dip %d); scenario too weak",
				blind, e.DipDurationNs)
		}
		if e.DipDurationNs < 5*hermes.TimeToDetectNs {
			t.Errorf("%s dip %dns is not ≥5x hermes detect %dns",
				blind, e.DipDurationNs, hermes.TimeToDetectNs)
		}
		if e.DipDurationNs < 5*hermes.TimeToRerouteNs {
			t.Errorf("%s dip %dns is not ≥5x hermes reroute %dns",
				blind, e.DipDurationNs, hermes.TimeToRerouteNs)
		}
	}
}

// TestChaosRecoveryDeterministicParallel extends the worker-pool determinism
// guarantee to the chaos engine: Result.Recovery and the flight recording of
// a two-failure scenario must be byte-identical between sequential Run and
// RunSeeds for every seed.
func TestChaosRecoveryDeterministicParallel(t *testing.T) {
	scenario, err := BuiltinScenario("multi", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, scenario)
	cfg.Flows = flowCount(80, 50)
	seeds := Seeds(3, 3)
	if testing.Short() {
		seeds = Seeds(3, 2)
	}

	seqRecovery := make([][]byte, len(seeds))
	seqSeries := make([][]byte, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		res := mustRun(t, c)
		if res.Recovery == nil || len(res.Recovery.Events) != 2 {
			t.Fatalf("seed %d: want 2 recovery events, got %+v", seed, res.Recovery)
		}
		b, err := json.Marshal(res.Recovery)
		if err != nil {
			t.Fatal(err)
		}
		seqRecovery[i] = b
		seqSeries[i] = timeseriesBytes(t, res.TimeSeries)
	}

	par, _, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range par {
		b, err := json.Marshal(res.Recovery)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqRecovery[i], b) {
			t.Errorf("seed %d: Recovery differs between sequential and parallel:\nseq: %s\npar: %s",
				seeds[i], seqRecovery[i], b)
		}
		if !bytes.Equal(seqSeries[i], timeseriesBytes(t, res.TimeSeries)) {
			t.Errorf("seed %d: flight recording differs between sequential and parallel", seeds[i])
		}
	}
}

// TestChaosScenarioValidation: malformed failure parameters and impossible
// timelines come back as errors from Run, never panics or silent clamps.
func TestChaosScenarioValidation(t *testing.T) {
	base := Config{
		Topology: ChaosTopology(), Scheme: SchemeECMP,
		Workload: "web-search", Load: 0.5, Flows: 20, Seed: 1,
	}
	expectErr := func(name string, cfg Config, want string) {
		t.Helper()
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", name, err, want)
		}
	}

	bad := base
	bad.Failure = FailureSpec{Kind: FailureBlackhole, Spine: 99}
	expectErr("static spine out of range", bad, "out of range")

	bad = base
	bad.Failure = FailureSpec{Kind: FailureRandomDrop, DropRate: -0.5}
	expectErr("static negative rate", bad, "DropRate")

	// NaN passes every ordered comparison's negation, so the range checks
	// must reject it explicitly, statically and inside a scenario.
	bad = base
	bad.Failure = FailureSpec{Kind: FailureRandomDrop, DropRate: math.NaN()}
	expectErr("static NaN rate", bad, "DropRate")
	bad = base
	bad.Failure = FailureSpec{Kind: FailureDegrade, Fraction: math.NaN()}
	expectErr("static NaN fraction", bad, "Fraction")
	bad = base
	bad.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureRandomDrop, DropRate: math.NaN()}},
	}}
	expectErr("scenario NaN rate", bad, "DropRate")
	bad = base
	bad.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureDegrade, Fraction: math.NaN()}},
	}}
	expectErr("scenario NaN fraction", bad, "Fraction")

	bad = base
	bad.Failure = FailureSpec{Kind: FailureCutLink, CutLeaf: 7, CutSpine: 0}
	expectErr("static leaf out of range", bad, "CutLeaf")

	bad = base
	bad.Failure = FailureSpec{Kind: FailureFlap, FlapPeriodNs: 10e6, FlapDownNs: 20e6}
	expectErr("flap down >= period", bad, "FlapDownNs")

	// A degradation never raises a link above the fabric rate, whether
	// static, lowered from flap sugar, or a scenario event; kinds that do
	// not read DegradedBps ignore it.
	for _, kind := range []FailureKind{FailureDegrade, FailureDegradeLink, FailureDegradeSpine, FailureFlap} {
		bad = base
		bad.Failure = FailureSpec{Kind: kind, DegradedBps: ChaosTopology().FabricRateBps + 1}
		expectErr("static "+string(kind)+" above the fabric rate", bad, "DegradedBps")
	}
	bad = base
	bad.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureDegradeLink, DegradedBps: 4e9}},
	}}
	expectErr("scenario degrade-link above the fabric rate", bad, "DegradedBps")
	ok := base
	ok.Failure = FailureSpec{Kind: FailureRandomDrop, DegradedBps: 4e9}
	if _, err := Run(ok); err != nil {
		t.Errorf("random-drop carrying an unread DegradedBps: %v", err)
	}

	bad = base
	bad.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureRandomDrop, Spine: -2}},
	}}
	expectErr("scenario spine out of range", bad, "out of range")

	bad = base
	bad.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureFlap}},
	}}
	expectErr("flap as scenario injection", bad, "event machinery")

	bad = base
	bad.Failure = FailureSpec{Kind: FailureFlap, CutLeaf: 0, CutSpine: 0}
	bad.Scenario = &Scenario{Name: "also", Events: []ScenarioEvent{
		{AtNs: 1e6, Name: "x", Failure: FailureSpec{Kind: FailureRandomDrop}},
	}}
	expectErr("flap sugar combined with scenario", bad, "scenario sugar")

	// A one-shot event past the end of the run is a scenario bug, not a
	// silently empty recovery report.
	bad = base
	bad.Scenario = &Scenario{Name: "late", Events: []ScenarioEvent{
		{AtNs: int64(3600e9), Name: "x", Failure: FailureSpec{Kind: FailureRandomDrop}},
	}}
	expectErr("event past run end", bad, "never fired")

	bad = base
	bad.Scenario = &Scenario{Name: "dangling", Events: []ScenarioEvent{
		{AtNs: 1e6, Clear: "ghost"},
	}}
	expectErr("clear without inject", bad, "ghost")
}

// TestValidateIsTheOneGate: run.validate rejects every invalid field before
// an engine, a fabric or a file exists. The first eight configs once passed
// it and failed only midway through set-up, one of them after it had
// created its checkpoint directory; a config that fails validation now
// creates none. The two timelines after them passed it and failed only at
// run end, when a clear found its event no longer active. The Hermes
// parameters after those passed it too, though the ECMP base ignores them;
// with a zero detection window a Hermes run would never finish, and with a
// detection window or a probe interval below 10 us one fires events for
// minutes. So did the negative values after the flow-size caps, each of
// which ran as the field's default. Every Hermes parameter value the
// repository runs stays valid.
func TestValidateIsTheOneGate(t *testing.T) {
	base := Config{
		Topology: ChaosTopology(), Scheme: SchemeECMP,
		Workload: "web-search", Load: 0.5, Flows: 20, Seed: 1,
	}
	event := func(ev ScenarioEvent) *Scenario {
		return &Scenario{Name: "bad", Events: []ScenarioEvent{ev}}
	}
	derived, err := DeriveHermesParams(base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	params := func(edit func(*core.Params)) func(*Config) {
		return func(c *Config) {
			p := derived
			edit(&p)
			c.HermesParams = &p
		}
	}
	spineBlackhole := FailureSpec{Kind: FailureSpineBlackhole}
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"protocol quic", func(c *Config) { c.Protocol = "quic" }, "quic"},
		{"scheme nope", func(c *Config) { c.Scheme = "nope" }, "nope"},
		{"workload nope", func(c *Config) { c.Workload = "nope" }, "nope"},
		{"zero spines", func(c *Config) { c.Topology.Spines = 0 }, "spine"},
		{"alert rule with no series", func(c *Config) {
			c.Alerts = &AlertsConfig{Rules: []AlertRule{{Name: "r", Op: "above", Value: 1}}}
		}, "series"},
		{"duration not below every", func(c *Config) {
			c.Scenario = event(ScenarioEvent{AtNs: 1e6, Name: "f", DurationNs: 2e6, EveryNs: 2e6,
				Failure: FailureSpec{Kind: FailureSpineBlackhole}})
		}, "overlap"},
		{"clear of an unknown name", func(c *Config) {
			c.Scenario = event(ScenarioEvent{AtNs: 1e6, Clear: "ghost"})
		}, "ghost"},
		{"random drop on spine 9 of 2", func(c *Config) {
			c.Scenario = event(ScenarioEvent{AtNs: 1e6, Name: "d",
				Failure: FailureSpec{Kind: FailureRandomDrop, Spine: 9}})
		}, "out of range"},
		{"clear of an event with a duration", func(c *Config) {
			c.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
				{AtNs: 1e6, Name: "a", DurationNs: 1e6, Failure: spineBlackhole},
				{AtNs: 3e6, Clear: "a"},
			}}
		}, "clears itself"},
		{"two clears of one event", func(c *Config) {
			c.Scenario = &Scenario{Name: "bad", Events: []ScenarioEvent{
				{AtNs: 1e6, Name: "a", Failure: spineBlackhole},
				{AtNs: 2e6, Clear: "a"},
				{AtNs: 3e6, Clear: "a"},
			}}
		}, "already cleared"},
		{"zero Hermes parameters", func(c *Config) { c.HermesParams = &core.Params{} }, "Tau"},
		{"derived Hermes parameters with Tau 0", params(func(p *core.Params) { p.Tau = 0 }), "Tau"},
		{"negative ProbeTimeout", params(func(p *core.Params) { p.ProbeTimeout = -1 }), "ProbeTimeout"},
		{"infinite RBps", params(func(p *core.Params) { p.RBps = math.Inf(1) }), "RBps"},
		{"ECNGain above 1", params(func(p *core.Params) { p.ECNGain = 1.5 }), "ECNGain"},
		{"Tau 1 ns", params(func(p *core.Params) { p.Tau = 1 }), "Tau 1 ns is below the floor of 10000 ns"},
		{"Tau just below 10 us", params(func(p *core.Params) { p.Tau = core.MinTau - 1 }), "Tau"},
		{"ProbeInterval 100 ns", params(func(p *core.Params) { p.ProbeInterval = 100 }),
			"ProbeInterval 100 ns is below the floor of 10000 ns"},
		{"ProbeInterval 1 us", params(func(p *core.Params) { p.ProbeInterval = 1000 }), "ProbeInterval"},
		{"ProbeInterval just below 10 us", params(func(p *core.Params) { p.ProbeInterval = core.MinProbeInterval - 1 }),
			"ProbeInterval"},
		{"MaxFlowBytes at the smallest flow", func(c *Config) { c.MaxFlowBytes = 1000 }, "smallest flow is 1000 B"},
		{"MaxFlowBytes above 2^50", func(c *Config) { c.MaxFlowBytes = 1 << 60 }, "out of range"},
		{"negative MaxFlowBytes", func(c *Config) { c.MaxFlowBytes = -1 }, "MaxFlowBytes -1 is negative"},
		{"negative SBytes", params(func(p *core.Params) { p.SBytes = -1 }), "SBytes"},
		{"negative RBps", params(func(p *core.Params) { p.RBps = -1 }), "RBps"},
		{"TimeoutsForBlackhole 0", params(func(p *core.Params) { p.TimeoutsForBlackhole = 0 }), "TimeoutsForBlackhole"},
		{"negative MPTCPSubflows", func(c *Config) { c.MPTCPSubflows = -1 }, "MPTCPSubflows -1 is negative"},
		{"negative RepFlowThresholdBytes", func(c *Config) { c.RepFlowThresholdBytes = -1 }, "RepFlowThresholdBytes -1 is negative"},
		{"negative DrainTimeoutNs", func(c *Config) { c.DrainTimeoutNs = -1 }, "DrainTimeoutNs -1 is negative"},
		{"negative FlowletTimeoutNs", func(c *Config) { c.FlowletTimeoutNs = -1 }, "FlowletTimeoutNs -1 is negative"},
		{"negative TelemetryIntervalNs", func(c *Config) { c.TelemetryIntervalNs = -1 }, "TelemetryIntervalNs -1 is negative"},
		{"negative TimeSeriesIntervalNs", func(c *Config) { c.TimeSeriesIntervalNs = -1 }, "TimeSeriesIntervalNs -1 is negative"},
		{"negative TimeSeriesCap", func(c *Config) { c.TimeSeriesCap = -1 }, "TimeSeriesCap -1 is negative"},
		{"negative Perf.SampleEvery", func(c *Config) { c.Perf = &PerfOptions{SampleEvery: -1} }, "Perf.SampleEvery -1 is negative"},
		{"ReorderTimeoutNs below -1", func(c *Config) { c.ReorderTimeoutNs = -2 }, "ReorderTimeoutNs -2"},
	}
	for _, tc := range cases {
		cfg := base
		tc.edit(&cfg)
		if err := (&run{cfg: cfg}).validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		dir := filepath.Join(t.TempDir(), "ckpt")
		cfg.Checkpoint = &CheckpointConfig{Dir: dir, IntervalNs: 1e6}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted it", tc.name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the rejected run made its checkpoint directory (stat: %v)", tc.name, err)
		}
	}
	for _, us := range []sim.Time{0, 10, 100, 500} {
		for _, tau := range []sim.Time{core.MinTau, 10 * sim.Millisecond} {
			cfg := base
			params(func(p *core.Params) { p.ProbeInterval, p.Tau = us*sim.Microsecond, tau })(&cfg)
			if err := (&run{cfg: cfg}).validate(); err != nil {
				t.Errorf("ProbeInterval %d us, Tau %d ns: validate = %v, want valid", us, tau, err)
			}
		}
	}
}

// TestFailureSpecCoversTheInjectorCases: the facade's one failure check
// rejects every out-of-range injector the chaos package's own validation
// used to reject, on the same 4x4 fabric of 2 cables per link. Two of those
// injectors the facade never builds at all: equal racks select the first
// and the last, and a zero fraction is the 20% default.
func TestFailureSpecCoversTheInjectorCases(t *testing.T) {
	topo := Topology{
		Leaves: 4, Spines: 4, HostsPerLeaf: 4, CablesPerLink: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9, HostDelayNs: 1000, FabricDelayNs: 1000,
	}
	for _, spec := range []FailureSpec{
		{Kind: FailureBlackhole, Spine: 4, SrcLeaf: 0, DstLeaf: 3},
		{Kind: FailureBlackhole, Spine: -2, SrcLeaf: 0, DstLeaf: 3},
		{Kind: FailureBlackhole, Spine: 0, SrcLeaf: 0, DstLeaf: 4},
		{Kind: FailureSpineBlackhole, Spine: 4},
		{Kind: FailureSpineBlackhole, Spine: -2},
		{Kind: FailureRandomDrop, DropRate: -0.1},
		{Kind: FailureRandomDrop, DropRate: 1.5},
		{Kind: FailureRandomDrop, DropRate: math.NaN()},
		{Kind: FailureCutLink, CutLeaf: -1},
		{Kind: FailureCutLink, CutSpine: 9},
		{Kind: FailureDegradeLink, DegradedBps: -5},
		{Kind: FailureCutCable, CutCable: 2},
		{Kind: FailureDegrade, Fraction: 1.2},
		{Kind: FailureDegrade, Fraction: math.NaN()},
		{Kind: FailureDegradeSpine, DegradedBps: -1},
		{Kind: FailureLeafDown, CutLeaf: 4},
		{Kind: FailureSpineDown, Spine: 17},
	} {
		cfg := Config{Topology: topo, Scheme: SchemeECMP, Workload: "web-search",
			Load: 0.5, Flows: 10, Failure: spec}
		if err := (&run{cfg: cfg}).validate(); err == nil {
			t.Errorf("%+v: validation passed, want error", spec)
		}
	}

	inj, err := injectorFor(FailureSpec{Kind: FailureBlackhole, SrcLeaf: 2, DstLeaf: 2}, topo)
	if bh, ok := inj.(*chaos.Blackhole); err != nil || !ok || bh.SrcLeaf != 0 || bh.DstLeaf != 3 {
		t.Errorf("blackhole on one rack built %+v, %v; want racks 0 and 3", inj, err)
	}
	inj, err = injectorFor(FailureSpec{Kind: FailureDegrade}, topo)
	if d, ok := inj.(*chaos.DegradeFraction); err != nil || !ok || d.Fraction != 0.2 {
		t.Errorf("degrade of fraction 0 built %+v, %v; want the 0.2 default", inj, err)
	}
}

// TestChaosSwitchDownSugar: the static spine-down failure kind lowers onto
// the scenario machinery and still produces a recovery report.
func TestChaosSwitchDownSugar(t *testing.T) {
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Flows = flowCount(80, 50)
	cfg.Failure = FailureSpec{Kind: FailureSpineDown, Spine: 1}
	res := mustRun(t, cfg)
	if res.Recovery == nil || len(res.Recovery.Events) != 1 {
		t.Fatalf("Recovery missing for spine-down sugar: %+v", res.Recovery)
	}
	e := res.Recovery.Events[0]
	if e.Kind != "spine-down" || e.OnsetNs != 0 || e.ClearNs != -1 {
		t.Errorf("unexpected activation record: %+v", e)
	}
	if res.FCT.Unfinished != 0 {
		t.Errorf("%d flows stranded: hermes must route around a dead spine", res.FCT.Unfinished)
	}
	// Sugar kinds keep their static failure tag in the flight metadata.
	if res.TimeSeries.Meta.Failure != "spine-down" {
		t.Errorf("Meta.Failure = %q", res.TimeSeries.Meta.Failure)
	}
}

// TestRunChaosMatrix: the resilience matrix sweeps schemes x scenarios x
// seeds on one pool, scores every cell against the scheme's clean baseline,
// and ranks Hermes ahead of the detection-blind schemes — the §5.3.2/§5.3.3
// ordering. Also pins pool-size independence and the scorecard rendering.
func TestRunChaosMatrix(t *testing.T) {
	base := chaosConfig(SchemeHermes, nil)
	base.Flows = flowCount(60, 40)
	spineBH, err := BuiltinScenario("spine-blackhole", base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	dropRec, err := BuiltinScenario("drop-recover", base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	mc := ChaosMatrixConfig{
		Base:      base,
		Schemes:   []Scheme{SchemeHermes, SchemeECMP, SchemePresto},
		Scenarios: []*Scenario{spineBH, dropRec},
		Seeds:     Seeds(11, 2),
	}
	m, err := RunChaosMatrix(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(m.Cells))
	}
	for _, scheme := range mc.Schemes {
		if m.BaselineP99Ms[scheme] <= 0 {
			t.Errorf("%s: clean baseline p99 missing", scheme)
		}
	}
	hermes := m.Cell(SchemeHermes, "spine-blackhole")
	if hermes.DetectedRuns != hermes.Runs || hermes.MeanDetectMs < 0 {
		t.Errorf("hermes detected %d/%d runs (mean %.2fms); want all",
			hermes.DetectedRuns, hermes.Runs, hermes.MeanDetectMs)
	}
	for _, blind := range []Scheme{SchemeECMP, SchemePresto} {
		c := m.Cell(blind, "spine-blackhole")
		if c.DetectedRuns != 0 || c.MeanDetectMs >= 0 {
			t.Errorf("%s claims detection under spine-blackhole: %+v", blind, c)
		}
		if c.WorstDipMs.Mean <= hermes.WorstDipMs.Mean {
			t.Errorf("%s dip %.2fms not worse than hermes %.2fms",
				blind, c.WorstDipMs.Mean, hermes.WorstDipMs.Mean)
		}
	}
	if m.Ranking[0].Scheme != SchemeHermes {
		t.Errorf("ranking[0] = %s, want hermes (ranking: %+v)", m.Ranking[0].Scheme, m.Ranking)
	}

	// Worker count must not leak into the matrix.
	mc2 := mc
	mc2.Options = ParallelOptions{Workers: 1}
	m2, err := RunChaosMatrix(context.Background(), mc2)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(m)
	jb, _ := json.Marshal(m2)
	if !bytes.Equal(ja, jb) {
		t.Errorf("matrix differs by worker count:\n%s\n%s", ja, jb)
	}

	var buf bytes.Buffer
	if err := m.RenderText(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"recovery scorecard", "spine-blackhole", "drop-recover",
		"hermes", "ecmp", "presto", "ranking"} {
		if !strings.Contains(out, want) {
			t.Errorf("scorecard missing %q:\n%s", want, out)
		}
	}

	// Config validation: empty axes and unnamed scenarios are errors.
	if _, err := RunChaosMatrix(context.Background(), ChaosMatrixConfig{Base: base}); err == nil {
		t.Error("empty matrix accepted")
	}
	bad := mc
	bad.Scenarios = []*Scenario{{Events: spineBH.Events}}
	if _, err := RunChaosMatrix(context.Background(), bad); err == nil {
		t.Error("unnamed scenario accepted")
	}
	bad = mc
	bad.Scenarios = []*Scenario{spineBH, spineBH}
	if _, err := RunChaosMatrix(context.Background(), bad); err == nil {
		t.Error("duplicate scenario names accepted")
	}
}

// TestChaosScorecardGolden byte-pins a small resilience matrix featuring the
// post-Hermes schemes (REPS, RepFlow) next to Hermes itself. The matrix JSON
// is a pure function of (ChaosMatrixConfig, Seeds) — no manifest, no wall
// clock — so any drift in scheme behavior, recovery scoring or scorecard
// schema shows up as a reviewable diff. Regenerate with
// `go test -run ChaosScorecardGolden -update`.
func TestChaosScorecardGolden(t *testing.T) {
	base := chaosConfig(SchemeHermes, nil)
	base.Flows = 40 // fixed, NOT flowCount: the golden must not depend on -short
	spineBH, err := BuiltinScenario("spine-blackhole", base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunChaosMatrix(context.Background(), ChaosMatrixConfig{
		Base:      base,
		Schemes:   []Scheme{SchemeHermes, SchemeREPS, SchemeRepFlow},
		Scenarios: []*Scenario{spineBH},
		Seeds:     Seeds(11, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "chaos_scorecard_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scorecard differs from %s (len %d vs %d); regenerate with -update and review",
			path, len(got), len(want))
	}

	// Every cell must carry recovery metrics, and the new schemes must be
	// honest about lacking a detector.
	for _, scheme := range []Scheme{SchemeREPS, SchemeRepFlow} {
		c := m.Cell(scheme, "spine-blackhole")
		if c == nil || c.Runs == 0 {
			t.Fatalf("%s: missing scorecard cell", scheme)
		}
		if c.DetectedRuns != 0 {
			t.Errorf("%s claims a detection transition; it has no path-state machine", scheme)
		}
	}
}

// TestRandomScenarioDeterministic: the generated timeline is a pure function
// of (topology, seed, intensity) and passes its own validation end to end.
func TestRandomScenarioDeterministic(t *testing.T) {
	a := RandomScenario(ChaosTopology(), 42, 0.8)
	b := RandomScenario(ChaosTopology(), 42, 0.8)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed, different scenario:\n%s\n%s", ja, jb)
	}
	if c := RandomScenario(ChaosTopology(), 43, 0.8); func() bool {
		jc, _ := json.Marshal(c)
		return bytes.Equal(ja, jc)
	}() {
		t.Error("different seeds produced identical scenarios")
	}
	// A NaN intensity clamps to 0, as a negative one does: one failure.
	for _, x := range []float64{math.NaN(), -1} {
		jn, _ := json.Marshal(RandomScenario(ChaosTopology(), 42, x))
		j0, _ := json.Marshal(RandomScenario(ChaosTopology(), 42, 0))
		if !bytes.Equal(jn, j0) || !bytes.Contains(j0, []byte(`"failure"`)) {
			t.Errorf("intensity %v: %s, want the intensity-0 timeline %s", x, jn, j0)
		}
	}

	cfg := chaosConfig(SchemeHermes, a)
	cfg.Flows = flowCount(80, 50)
	res := mustRun(t, cfg)
	if res.Recovery == nil || len(res.Recovery.Events) == 0 {
		t.Fatal("random scenario produced no recovery events")
	}
	for _, e := range res.Recovery.Events {
		if e.ClearNs < 0 {
			t.Errorf("random scenario event %q never cleared", e.Name)
		}
	}
}

// TestBuiltinScenariosComplete runs every library scenario, plus a random
// timeline, under ECMP and Hermes with the invariant harness armed: each run
// must complete with zero violations and balanced packet conservation. Seed
// 14 has spine-down-recover cut a spine's links while ECMP keeps packets
// queued behind the one on the wire, and random timeline 25 does the same
// under Hermes.
func TestBuiltinScenariosComplete(t *testing.T) {
	type timeline struct {
		name string
		sc   *Scenario
	}
	var timelines []timeline
	for _, name := range ScenarioNames() {
		sc, err := BuiltinScenario(name, ChaosTopology())
		if err != nil {
			t.Fatal(err)
		}
		timelines = append(timelines, timeline{name, sc})
	}
	timelines = append(timelines, timeline{"random-25", RandomScenario(ChaosTopology(), 25, 0.9)})
	for _, tl := range timelines {
		for _, scheme := range []Scheme{SchemeECMP, SchemeHermes} {
			t.Run(tl.name+"/"+string(scheme), func(t *testing.T) {
				t.Parallel()
				cfg := chaosConfig(scheme, tl.sc)
				cfg.Seed = 14
				cfg.Checks = true
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
