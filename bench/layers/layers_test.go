package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/bench/suite"
)

// TestIdentity checks that the assembled stack reproduces hermes.Run
// exactly, in events, simulated duration, the FCT report and goodput, for
// every run configuration the traced run assembles, at two seeds.
// (soak-resume assembles fig12-hermes's configuration; blackhole-observed is
// traced through the facade.)
func TestIdentity(t *testing.T) {
	for _, w := range suite.Workloads {
		if w.Resume || w.Observed {
			continue
		}
		for _, seed := range []int64{1, 2} {
			cfg, err := w.Config(seed, w.SmallFlows())
			if err != nil {
				t.Fatal(err)
			}
			want, err := hermes.Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: hermes.Run: %v", w.Name, seed, err)
			}
			s, err := build(cfg, hooks{})
			if err != nil {
				t.Fatalf("%s seed %d: build: %v", w.Name, seed, err)
			}
			s.loop(hooks{})
			got := s.finish()
			wantFCT, _ := json.Marshal(want.FCT)
			gotFCT, _ := json.Marshal(got.FCT)
			if got.Events != want.Events || got.SimNs != want.SimDuration ||
				string(gotFCT) != string(wantFCT) || got.GoodputGbps != want.GoodputGbps {
				t.Errorf("%s seed %d: stack gives events %d, sim %d ns, goodput %v, FCT %s\nhermes.Run gives events %d, sim %d ns, goodput %v, FCT %s",
					w.Name, seed, got.Events, got.SimNs, got.GoodputGbps, gotFCT,
					want.Events, want.SimDuration, want.GoodputGbps, wantFCT)
			}
		}
	}
}

// TestTracedMetricsMatchBenchmarkJSON runs every workload's traced
// measurement once, small, and checks that it passes its own checks and
// prints exactly the per-layer metrics BENCHMARK.json declares.
func TestTracedMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	clock := clockCost()
	for _, w := range suite.Workloads {
		rep, err := measure(w, suite.Args{Seed: 1, Flows: w.SmallFlows(), Dir: t.TempDir()}, &tracer{}, clock)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", w.Name, len(rep.Metrics), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if got, ok := rep.Metrics[m.Name]; !ok {
				t.Errorf("%s: metric %s not printed", w.Name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
