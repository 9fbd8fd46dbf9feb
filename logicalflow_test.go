package hermes

import (
	"bytes"
	"encoding/json"
	"testing"
)

// logicalFlowConfig is the base run of TestLogicalFlowDigests: web-search
// at load 0.6 on the 4x4 fabric with the invariant harness, the report
// sweep and the flight ring on.
func logicalFlowConfig(scheme Scheme, seed int64) Config {
	return Config{
		Topology: smallTopo(), Scheme: scheme,
		Workload: "web-search", Load: 0.6, Flows: 150, Seed: seed,
		Checks: true, Telemetry: true, TimeSeries: true,
	}
}

// logicalFlowDigest is the SHA-256 of a run's Result JSON, its report JSON
// and its flight JSONL, in that order.
func logicalFlowDigest(t *testing.T, cfg Config, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(b)
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.TimeSeries.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256Hex(buf.Bytes())
}

// TestLogicalFlowDigests pins how MPTCP and RepFlow carry a logical flow:
// subflow counts and replication thresholds, logical flows left unfinished
// by a spine blackhole (charged their elapsed time, Fig 17), and forks that
// change how the flows after the fork instant are carried. A logical flow
// that completes twice, never, or outside the FCT ring moves a digest, as
// does a member flow that takes another flow ID.
func TestLogicalFlowDigests(t *testing.T) {
	blackhole := FailureSpec{Kind: FailureSpineBlackhole, Spine: 1}
	for _, c := range []struct {
		name       string
		scheme     Scheme
		subflows   int
		threshold  int64
		failure    FailureSpec
		unfinished int
		want       string
	}{
		{"mptcp", SchemeMPTCP, 0, 0, FailureSpec{}, 0, "f57ec5354571300572e67c773ee12fdd3052f2328a9d9c1a8a9f3f47f68b7884"},
		{"mptcp/1", SchemeMPTCP, 1, 0, FailureSpec{}, 0, "5967e9e5713690eae1a9796ea038d9adaec5f1d0706a2dc828fe993ec3f2246b"},
		{"mptcp/8", SchemeMPTCP, 8, 0, FailureSpec{}, 0, "20c07c91f03c742ca953acd0eeb22d7c856dd469687e51ca925a385c349a071e"},
		{"repflow", SchemeRepFlow, 0, 0, FailureSpec{}, 0, "3c7c5d70ea018cee5ad86a75da4703a44d2738105fc35d7446d1516d3f92b94a"},
		{"repflow/20KB", SchemeRepFlow, 0, 20_000, FailureSpec{}, 0, "e746e67dc68e7ecb55ce6fd43bbf27a8dea41563f4c548872e2492f70eb63d05"},
		{"repflow/1MB", SchemeRepFlow, 0, 1_000_000, FailureSpec{}, 0, "327f1576ff56e6303c95996bf930f67812121b7154a34183a264b2ba165f0b70"},
		{"mptcp/spine-blackhole", SchemeMPTCP, 0, 0, blackhole, 65, "a8cd66da1b6fbf73f906772c09ae75102de1b37d32f4b7f8d812eacdd14681cf"},
		{"repflow/spine-blackhole", SchemeRepFlow, 0, 0, blackhole, 21, "61ed77e548031582ba3c2fe9f0ebebd624c7c3b1814d14475a3f9aa29e1068f8"},
		{"ecmp/spine-blackhole", SchemeECMP, 0, 0, blackhole, 36, "636cfda8f9d3efa0d21f5d7600df3dc7a5797c913ff3e66ec583d64de480af96"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := logicalFlowConfig(c.scheme, 7)
			cfg.MPTCPSubflows = c.subflows
			cfg.RepFlowThresholdBytes = c.threshold
			cfg.Failure = c.failure
			if c.failure.Kind != FailureNone {
				cfg.DrainTimeoutNs = 5e6
			}
			res := mustRun(t, cfg)
			if res.FCT.Unfinished != c.unfinished {
				t.Errorf("%d flows unfinished, want %d", res.FCT.Unfinished, c.unfinished)
			}
			if got := logicalFlowDigest(t, cfg, res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
	for _, c := range []struct {
		from, to Scheme
		want     string
	}{
		{SchemeECMP, SchemeMPTCP, "d42ac2ff234256c526d64597503b7a26a41d18796df443c117a496352dc0dd7a"},
		{SchemeECMP, SchemeRepFlow, "cf2cfeab25ef90225215fddfbda87ed3bbf8a9f298eb5c7acac108d36719ae19"},
		{SchemeRepFlow, SchemeECMP, "80207f3341d08c68e5e948dbffbe9ea2d6bfc355ab5c62d872ee901b5bb95230"},
		{SchemeMPTCP, SchemeRepFlow, "edb7cb602fa05f5bef05c8f4f5a5b422a61b133e2ff41ca9eff708052e6ffc05"},
	} {
		t.Run("fork/"+string(c.from)+"-"+string(c.to), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := logicalFlowConfig(c.from, 9)
			cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{4e6}}
			mustRun(t, cfg)
			res, err := Fork(dir, ForkOptions{Scheme: c.to})
			if err != nil {
				t.Fatal(err)
			}
			forked := logicalFlowConfig(c.to, 9)
			if got := logicalFlowDigest(t, forked, res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
