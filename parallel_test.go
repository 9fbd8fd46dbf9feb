package hermes

import (
	"bytes"
	"context"
	"errors"
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

// TestParallelMatchesSequential is the determinism cross-check for the
// worker pool: RunParallel over N seeds must produce byte-identical
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

			par, err := RunParallelOpts(context.Background(), cfg, seeds,
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

// TestParallelCancellation: a pre-cancelled context must abort the sweep
// with context.Canceled and no partial results.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunParallelOpts(ctx, goldenConfig(), Seeds(1, 4), ParallelOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
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
