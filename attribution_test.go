package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/trace"
)

// attributionConfig is the acceptance scenario: the paper's testbed topology
// with a spine-0 blackhole between the racks. ECMP flows hashed onto the
// dead paths stall on RTO backoff; Hermes detects the blackhole and reroutes.
func attributionConfig(scheme Scheme) Config {
	return Config{
		Topology:       TestbedTopology(),
		Scheme:         scheme,
		Workload:       "web-search",
		Load:           0.5,
		Flows:          300,
		Seed:           3,
		Failure:        FailureSpec{Kind: FailureBlackhole, Spine: 0},
		Trace:          true,
		Telemetry:      scheme == SchemeHermes,
		DrainTimeoutNs: 2e9,
	}
}

// TestAttributionBlackholeAcceptance is the PR's acceptance criterion: under
// a blackhole, FCT attribution must show the RTO-stall share of the p99 tail
// at least 5x higher for ECMP than for Hermes, and the Perfetto export must
// be valid JSON with slices for at least 100 flows.
func TestAttributionBlackholeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed runs")
	}
	ecmpRes, err := Run(attributionConfig(SchemeECMP))
	if err != nil {
		t.Fatal(err)
	}
	hermesRes, err := Run(attributionConfig(SchemeHermes))
	if err != nil {
		t.Fatal(err)
	}

	ecmpTail := trace.TailAttribution(ecmpRes.Trace.Attribution(), 0.99)
	hermesTail := trace.TailAttribution(hermesRes.Trace.Attribution(), 0.99)
	t.Logf("p99-tail stall share: ecmp %.3f vs hermes %.3f", ecmpTail.StallShare, hermesTail.StallShare)
	if ecmpTail.StallShare <= 0.3 {
		t.Fatalf("ECMP tail stall share %.3f: blackhole not visible in attribution", ecmpTail.StallShare)
	}
	if ecmpTail.StallShare < 5*hermesTail.StallShare {
		t.Fatalf("stall share ecmp %.3f vs hermes %.3f: want >= 5x separation",
			ecmpTail.StallShare, hermesTail.StallShare)
	}

	// Hermes spans must carry decision-log reasons and the trace must show
	// the run's verdicts.
	reasons := 0
	for _, sp := range hermesRes.Trace.Spans.All() {
		if sp.Reason != "" {
			reasons++
		}
	}
	if reasons == 0 {
		t.Fatal("no span carries an audit reason: audit correlation broken")
	}
	var jsonl bytes.Buffer
	if err := hermesRes.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"kind":"verdict"`) {
		t.Fatal("no failure verdicts in the trace")
	}
	hasFailureReason := false
	for _, sp := range hermesRes.Trace.Spans.All() {
		if sp.Reason == telemetry.ReasonFailure || sp.Reason == telemetry.ReasonTimeout {
			hasFailureReason = true
			break
		}
	}
	if !hasFailureReason {
		t.Fatal("no span entered its path because of a failure/timeout despite the blackhole")
	}

	// The Perfetto export must be valid JSON with slices for >= 100 flows.
	var buf bytes.Buffer
	if err := ecmpRes.Trace.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Tid uint64  `json:"tid"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	sliceFlows := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			sliceFlows[e.Tid] = true
		}
	}
	if len(sliceFlows) < 100 {
		t.Fatalf("perfetto export has slices for %d flows, want >= 100", len(sliceFlows))
	}

	// The per-flow fabric decomposition rode along.
	if len(ecmpRes.Trace.FlowHops) == 0 {
		t.Fatal("trace carries no per-flow hop decomposition")
	}
}

// TestTraceDeterminismParallel: the same seed must produce byte-identical
// JSONL and Perfetto exports whether the run executes alone or inside a
// RunConfigs worker pool.
func TestTraceDeterminismParallel(t *testing.T) {
	cfg := attributionConfig(SchemeHermes)
	cfg.Flows = 120

	seqRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunConfigs(context.Background(), seedConfigs(cfg, []int64{cfg.Seed, cfg.Seed + 1}),
		ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	export := func(rec *trace.Recorder) (string, string) {
		var j, p bytes.Buffer
		if err := rec.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.WritePerfetto(&p); err != nil {
			t.Fatal(err)
		}
		return j.String(), p.String()
	}
	seqJSONL, seqPerfetto := export(seqRes.Trace)
	parJSONL, parPerfetto := export(parRes[0].Trace)
	if seqJSONL != parJSONL {
		t.Fatal("same seed produced different span JSONL under RunConfigs")
	}
	if seqPerfetto != parPerfetto {
		t.Fatal("same seed produced different Perfetto output under RunConfigs")
	}
	if otherJSONL, _ := export(parRes[1].Trace); otherJSONL == seqJSONL {
		t.Fatal("different seeds produced identical traces (seed not applied?)")
	}
}

// TestAuditOverflowEndToEnd: a real run that makes more decisions than the
// audit cap holds must surface as a Dropped count on the live log, a
// dropped total in the report summary, and a truncation marker in the JSONL
// export. A 150-flow `multi` run at load 0.7 logs about 104,000 decisions,
// nearly all re-placements off failed paths, past MaxAuditEntries.
func TestAuditOverflowEndToEnd(t *testing.T) {
	scenario, err := BuiltinScenario("multi", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, scenario)
	cfg.Flows = 150
	cfg.Load = 0.7
	cfg.Telemetry = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Telemetry.Audit
	if log.Len() != telemetry.MaxAuditEntries || log.Dropped() == 0 {
		t.Fatalf("len=%d dropped=%d: cap not enforced", log.Len(), log.Dropped())
	}
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit.Entries != telemetry.MaxAuditEntries || rep.Audit.Dropped != uint64(log.Dropped()) {
		t.Fatalf("report audit summary: entries=%d dropped=%d", rep.Audit.Entries, rep.Audit.Dropped)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"truncated"`) {
		t.Fatal("JSONL export lacks the truncation marker")
	}
}
