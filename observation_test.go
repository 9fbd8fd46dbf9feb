package hermes

import (
	"encoding/json"
	"testing"

	"github.com/hermes-repro/hermes/internal/checkpoint"
)

// observeAll arms every optional sink on cfg: the report sweep with its
// decision log, the flight ring, the builtin alerts, the trace and the
// visibility sampler.
func observeAll(cfg Config) Config {
	cfg.Telemetry = true
	cfg.TimeSeries = true
	cfg.Alerts = &AlertsConfig{Builtin: true}
	cfg.Trace = true
	cfg.MeasureVisibility = true
	return cfg
}

// checkpointStates decodes the state of every checkpoint res wrote.
func checkpointStates(t *testing.T, res *Result) []*checkpoint.Snapshot {
	t.Helper()
	var out []*checkpoint.Snapshot
	for _, ci := range res.Checkpoints {
		f, err := checkpoint.ReadFile(ci.Path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.DecodeState()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// simulated returns res with every field that reports on observation
// cleared, as JSON: what arming a sink must leave unchanged. Events counts
// observer instants too, so it goes; the engine section of a checkpoint
// compares the events fired.
func simulated(t *testing.T, res *Result) string {
	t.Helper()
	c := *res
	c.Events, c.TraceCounts, c.Alerts, c.Checkpoints = 0, nil, nil, nil
	c.VisibilitySwitchPair, c.VisibilityHostPair = 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestObservationCannotChangeTheRun: for every scheme, clean, under the
// spine-blackhole scenario and under a static flap, a run with every
// optional sink armed and one with none checkpoint the same state at 3, 10
// and 25 ms, section for section, and end with the same result. Sample
// instants are engine observers, not events, so observing a run takes no
// sequence number from it.
func TestObservationCannotChangeTheRun(t *testing.T) {
	blackhole, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	flap := FailureSpec{Kind: FailureFlap, CutLeaf: 0, CutSpine: 0, FlapPeriodNs: 4e6, FlapDownNs: 2e6}
	for _, s := range Schemes() {
		for _, c := range []struct {
			name     string
			scenario *Scenario
			failure  FailureSpec
		}{{"clean", nil, FailureSpec{}}, {"spine-blackhole", blackhole, FailureSpec{}}, {"flap", nil, flap}} {
			s, c := s, c
			t.Run(string(s)+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cfg := chaosConfig(s, c.scenario)
				cfg.Failure = c.failure
				cfg.Checks = true
				cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: []int64{3e6, 10e6, 25e6}}
				plain := mustRun(t, cfg)
				cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: cfg.Checkpoint.AtNs}
				observed := mustRun(t, observeAll(cfg))
				want, got := checkpointStates(t, plain), checkpointStates(t, observed)
				if len(want) != 3 || len(got) != 3 {
					t.Fatalf("%d and %d checkpoints written, want 3 each", len(want), len(got))
				}
				for i := range want {
					if d := checkpoint.Diff(want[i], got[i]); len(d) > 0 {
						t.Errorf("checkpoint at %d ns: observing changed %+v", plain.Checkpoints[i].SimTimeNs, d)
					}
				}
				if a, b := simulated(t, plain), simulated(t, observed); a != b {
					t.Errorf("observing changed the result:\n plain    %s\n observed %s", a, b)
				}
			})
		}
	}
}

// TestForkRecordsItsPrefix: a fork records from t=0 like any other run, so
// a healthy Hermes run checkpointed at 19 ms and forked with the
// spine-blackhole scenario grafted on (onset at 20 ms) scores its recovery
// against the same baseline as a whole run with the scenario from t=0. A
// ring started at the fork would hold 9 of the baseline window's 100
// samples.
func TestForkRecordsItsPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{19e6}}
	mustRun(t, cfg)
	sc, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Fork(dir, ForkOptions{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	whole := mustRun(t, chaosConfig(SchemeHermes, sc))
	if times := fork.TimeSeries.Times(); len(times) == 0 || times[0] != 100e3 {
		t.Fatalf("fork's flight ring starts at %v, want its first sample at 100 us", times[:min(len(times), 1)])
	}
	if fork.Recovery == nil || whole.Recovery == nil || len(fork.Recovery.Events) == 0 || len(whole.Recovery.Events) == 0 {
		t.Fatalf("Recovery = %+v and %+v, want the scenario scored in both", fork.Recovery, whole.Recovery)
	}
	if f, w := fork.Recovery.Events[0].BaselineGbps, whole.Recovery.Events[0].BaselineGbps; f != w {
		t.Errorf("fork's recovery baseline %v Gbps, whole run's %v Gbps", f, w)
	}
}

// TestEventsCountSampleInstants: Result.Events and the status plane's run
// summary count the engine's fired events plus the instants the report
// sweep and the flight ring sampled, as the engine profile does. Each
// recording holds one final sample more than its instants.
func TestEventsCountSampleInstants(t *testing.T) {
	cfg := chaosConfig(SchemeECMP, nil)
	plain := mustRun(t, cfg)
	st := NewStatus()
	cfg.Status = st
	cfg.Telemetry = true
	cfg.TimeSeries = true
	cfg.Perf = &PerfOptions{}
	res := mustRun(t, cfg)
	instants := uint64(res.TimeSeries.Len()-1) + uint64(res.Telemetry.Sweep.Len()-1)
	if res.Events != plain.Events+instants {
		t.Errorf("Events = %d, want %d fired + %d instants", res.Events, plain.Events, instants)
	}
	if res.Perf.EventsTotal != res.Events {
		t.Errorf("profile counts %d events, Result.Events %d", res.Perf.EventsTotal, res.Events)
	}
	if sums := st.Summaries(); len(sums) != 1 || sums[0].Events != res.Events {
		t.Errorf("status summaries %+v, want one with Events %d", sums, res.Events)
	}
}
