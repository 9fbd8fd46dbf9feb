package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// reportBytes serializes a result through the repo's canonical byte-stable
// encoding (the same one the golden test pins), so comparisons cover every
// field the report carries: FCT percentiles, counters, series, audit log.
func reportBytes(t *testing.T, cfg Config, res *Result) []byte {
	t.Helper()
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedConfigs copies cfg once per seed: the batch RunSeeds hands RunConfigs.
func seedConfigs(cfg Config, seeds []int64) []Config {
	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = cfg
		cfgs[i].Seed = s
	}
	return cfgs
}

// TestParallelMatchesSequential is the determinism cross-check for the
// worker pool: RunConfigs over N seeds must produce byte-identical
// serialized results to running the same seeds one at a time, for every
// scheme. A worker-count or scheduling-order leak into simulation state
// breaks this immediately.
func TestParallelMatchesSequential(t *testing.T) {
	seeds := Seeds(1, 3)
	if testing.Short() {
		seeds = Seeds(1, 2)
	}
	// REPS and RepFlow ride along: REPS' fresh-entropy fallback is a plain
	// round-robin counter and RepFlow's race resolution is pure event order,
	// so both must serialize byte-identically regardless of worker count.
	for _, scheme := range []Scheme{SchemeECMP, SchemeLetFlow, SchemeHermes, SchemeREPS, SchemeRepFlow} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig()
			cfg.Scheme = scheme

			seq := make([]*Result, len(seeds))
			for i, s := range seeds {
				c := cfg
				c.Seed = s
				res, err := Run(c)
				if err != nil {
					t.Fatalf("sequential seed %d: %v", s, err)
				}
				seq[i] = res
			}

			par, err := RunConfigs(context.Background(), seedConfigs(cfg, seeds),
				ParallelOptions{Workers: len(seeds)})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}

			for i, s := range seeds {
				c := cfg
				c.Seed = s
				a, b := reportBytes(t, c, seq[i]), reportBytes(t, c, par[i])
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: parallel result differs from sequential (%d vs %d bytes)",
						s, len(b), len(a))
				}
			}
		})
	}
}

// TestParallelCancellation: a pre-cancelled context must abort the batch
// with context.Canceled and no finished results.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunConfigs(ctx, seedConfigs(goldenConfig(), Seeds(1, 4)), ParallelOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunConfigsLabelsEachRun runs a load sweep as one batch: the status
// plane must see the batch planned and tell its runs apart by load, and
// each result must match a sequential Run of its config byte for byte.
// Two configs that share scheme, load and seed must still get two labels.
func TestRunConfigsLabelsEachRun(t *testing.T) {
	st := NewStatus()
	var cfgs []Config
	for _, load := range []float64{0.3, 0.6} {
		cfgs = append(cfgs, Config{
			Topology: ChaosTopology(), Scheme: SchemeECMP, Workload: "web-search",
			Load: load, Flows: 40, Seed: 1, Telemetry: true, Status: st,
		})
	}
	results, err := RunConfigs(context.Background(), cfgs, ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, s := range st.Summaries() {
		labels = append(labels, s.Label)
	}
	sort.Strings(labels)
	if want := []string{"ecmp/load 0.3/seed 1", "ecmp/load 0.6/seed 1"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("run labels %q, want %q", labels, want)
	}
	if p := st.Progress(); p.RunsPlanned != 2 {
		t.Errorf("runs planned %d, want 2", p.RunsPlanned)
	}
	for i, c := range cfgs {
		c.Status = nil
		a, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(mustRun(t, c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("load %g: batch result differs from a sequential Run", c.Load)
		}
	}

	twice := NewStatus()
	c := cfgs[0]
	c.Status = twice
	if _, err := RunConfigs(context.Background(), []Config{c, c}, ParallelOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if sums := twice.Summaries(); len(sums) != 2 || sums[0].Label == sums[1].Label {
		t.Errorf("one config run twice: summaries %+v, want two distinct labels", sums)
	}
}

// TestOneLabelRule: every run is named "<scheme>[/<scenario>]/load
// <load>/seed <seed>" on the status plane, whether it runs alone, as a
// RunSeeds seed, in a RunConfigs batch or as a chaos matrix cell. A batch
// that mixes workloads names each run's workload after its scheme and
// scenario, and "/slot <i>" is appended only where two configs of one batch
// share a label.
func TestOneLabelRule(t *testing.T) {
	base := Config{
		Topology: ChaosTopology(), Scheme: SchemeECMP, Workload: "web-search",
		Load: 0.5, Flows: 15, Seed: 3, DrainTimeoutNs: 100e6,
	}
	sc := mustScenario(t, "spine-blackhole", base.Topology)
	check := func(what string, st *Status, want ...string) {
		t.Helper()
		var got []string
		for _, s := range st.Summaries() {
			got = append(got, s.Label)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s labels %q, want %q", what, got, want)
		}
	}

	c := base
	c.Status, c.Scenario = NewStatus(), sc
	mustRun(t, c)
	check("Run", c.Status, "ecmp/spine-blackhole/load 0.5/seed 3")

	c = base
	c.Status = NewStatus()
	if _, _, err := RunSeeds(c, Seeds(1, 2)); err != nil {
		t.Fatal(err)
	}
	check("RunSeeds", c.Status, "ecmp/load 0.5/seed 1", "ecmp/load 0.5/seed 2")

	c = base
	c.Status = NewStatus()
	low := c
	low.Load = 0.3
	if _, err := RunConfigs(context.Background(), []Config{c, low, c}, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	check("RunConfigs", c.Status,
		"ecmp/load 0.3/seed 3", "ecmp/load 0.5/seed 3/slot 0", "ecmp/load 0.5/seed 3/slot 2")

	c = base
	c.Status = NewStatus()
	dm := c
	dm.Workload, dm.Flows = "data-mining", 4
	scn := dm
	scn.Scenario = sc
	if _, err := RunConfigs(context.Background(), []Config{c, dm, dm, scn}, ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	check("RunConfigs over two workloads", c.Status,
		"ecmp/data-mining/load 0.5/seed 3/slot 1", "ecmp/data-mining/load 0.5/seed 3/slot 2",
		"ecmp/spine-blackhole/data-mining/load 0.5/seed 3", "ecmp/web-search/load 0.5/seed 3")

	c = base
	c.Status = NewStatus()
	if _, err := RunChaosMatrix(context.Background(), ChaosMatrixConfig{
		Base: c, Schemes: []Scheme{SchemeHermes}, Scenarios: []*Scenario{sc}, Seeds: []int64{4},
	}); err != nil {
		t.Fatal(err)
	}
	check("RunChaosMatrix", c.Status, "hermes/load 0.5/seed 4", "hermes/spine-blackhole/load 0.5/seed 4")
}

// TestPoolEntriesObserveDefaultRunContext: the entries that take no
// context must stop, as Run does, when the SetDefaultRunContext default is
// cancelled. The CLIs install their SIGINT context there.
func TestPoolEntriesObserveDefaultRunContext(t *testing.T) {
	defer SetDefaultRunContext(defaultRunContext())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	SetDefaultRunContext(ctx)

	cfg := chaosConfig(SchemeECMP, nil)
	results, st, err := RunSeeds(cfg, Seeds(11, 2))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunSeeds: err = %v, want context.Canceled", err)
	}
	if len(results) != 2 || results[0] != nil || results[1] != nil {
		t.Errorf("RunSeeds: results %v, want 2 nil slots", results)
	}
	if st.N != 0 {
		t.Errorf("stats over a fully-cancelled sweep claim N=%d completed seeds", st.N)
	}
	if _, err := TuneHermes(cfg, nil, Seeds(11, 1), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("TuneHermes: err = %v, want context.Canceled", err)
	}
}

// TestChecksCleanUnderFailures runs the full invariant harness
// (Config.Checks: engine time/ordering/lifecycle checks plus the packet
// conservation ledger) under the failure injectors most likely to unbalance
// the ledger — silent blackhole drops and a cut link — and requires a clean
// bill of health.
func TestChecksCleanUnderFailures(t *testing.T) {
	for _, f := range []FailureSpec{
		{Kind: FailureNone},
		{Kind: FailureBlackhole, Spine: 0},
		{Kind: FailureCutLink, CutLeaf: 0, CutSpine: 1},
	} {
		f := f
		name := string(f.Kind)
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig()
			cfg.Telemetry = false
			cfg.TelemetryIntervalNs = 0
			cfg.Failure = f
			cfg.Checks = true
			if _, err := Run(cfg); err != nil {
				t.Fatalf("invariant harness tripped: %v", err)
			}
		})
	}
}

// TestChecksCleanWithReplication points the same invariant harness at
// RepFlow: a cancelled loser's in-flight packets must drain through the
// ledger as ordinary deliveries (or accounted failure drops) — never as
// losses — and the disarmed RTO timer must not resurrect sender state. Both
// a silent blackhole and a random-dropping spine race cancellations against
// in-flight traffic.
func TestChecksCleanWithReplication(t *testing.T) {
	for _, f := range []FailureSpec{
		{Kind: FailureNone},
		{Kind: FailureBlackhole, Spine: 0},
		{Kind: FailureRandomDrop, Spine: 0, DropRate: 0.05},
	} {
		f := f
		name := string(f.Kind)
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig()
			cfg.Scheme = SchemeRepFlow
			cfg.Telemetry = false
			cfg.TelemetryIntervalNs = 0
			cfg.Failure = f
			cfg.Checks = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("invariant harness tripped: %v", err)
			}
			if res.ReplicatedFlows == 0 {
				t.Fatal("no flows replicated; the ledger was not exercised")
			}
		})
	}
}

// TestChecksOffByDefault pins that the harness really is opt-in: the zero
// config value must not enable it (it costs a branch per event).
func TestChecksOffByDefault(t *testing.T) {
	if goldenConfig().Checks {
		t.Fatal("Checks should default to false")
	}
}
