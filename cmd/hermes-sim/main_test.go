package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hermes "github.com/hermes-repro/hermes"
)

// TestResumedAlertLogNamesTheRunThatRan: a run resumed with -resume writes
// the alert-log run line the uninterrupted run writes, and its header seed,
// though the experiment flags it ignores still hold their defaults (load
// 0.6, seed 1, no scenario) and would name another run.
func TestResumedAlertLogNamesTheRunThatRan(t *testing.T) {
	dir := t.TempDir()
	topo := hermes.TestbedTopology()
	sc, err := hermes.BuiltinScenario("spine-blackhole", topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hermes.Config{
		Topology: topo, Scheme: hermes.SchemeHermes, Workload: "web-search",
		Load: 0.5, Flows: 30, Seed: 7, Scenario: sc,
		Alerts:     &hermes.AlertsConfig{Builtin: true},
		Checkpoint: &hermes.CheckpointConfig{Dir: filepath.Join(dir, "ckpt"), AtNs: []int64{25e6}},
	}
	direct, err := hermes.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := hermes.Restore(cfg.Checkpoint.Dir)
	if err != nil {
		t.Fatal(err)
	}
	flags := hermes.Config{Topology: topo, Scheme: hermes.SchemeHermes, Workload: "web-search", Load: 0.6, Seed: 1}
	ran, err := ranConfig(flags, cfg.Checkpoint.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Seed != 7 {
		t.Errorf("resumed header seed = %d, want the checkpointed run's 7", ran.Seed)
	}

	runLine := func(name string, ran hermes.Config, res *hermes.Result) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := writeAlertLog(path, ran, res); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Scan()
		return sc.Text()
	}
	want := runLine("direct.jsonl", cfg, direct)
	got := runLine("resumed.jsonl", ran, resumed)
	if got != want {
		t.Errorf("resumed run line\n %s\nwant the direct run's\n %s", got, want)
	}
	if label := `"hermes/spine-blackhole/load 0.5/seed 7"`; !strings.Contains(want, label) {
		t.Errorf("run line %s does not carry the label %s", want, label)
	}
}
