package hermes

import (
	"encoding/json"
	"fmt"

	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

// Report is the serializable run record. It is an alias so importers outside
// the module can consume reports through the facade without reaching into
// internal packages.
type Report = telemetry.Report

// BuildReport assembles the serializable record of one finished run: the
// experiment configuration, FCT percentiles, every telemetry counter total,
// the swept time series and the decision-audit aggregate. It works for any
// scheme and any telemetry setting — with telemetry off the counters section
// only carries the run-level "run." values.
//
// Reports contain simulation time exclusively, so the same (Config, Seed)
// produces byte-identical WriteJSON/WriteCSV output.
func BuildReport(cfg Config, res *Result) (*telemetry.Report, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("hermes: marshal config: %w", err)
	}

	rep := &telemetry.Report{
		Schema:        telemetry.ReportSchema,
		Scheme:        string(res.Scheme),
		Workload:      res.Workload,
		Load:          res.Load,
		Seed:          cfg.Seed,
		Config:        raw,
		SimDurationNs: int64(res.SimDuration),
		Events:        res.Events,
		FCT:           fctSummary(res.FCT),
		Counters:      map[string]float64{},
	}

	// Run-level derived values live under "run." so they sort apart from
	// the declared subsystem metrics.
	rep.Counters["run.goodput_gbps"] = res.GoodputGbps
	rep.Counters["run.fabric_utilization"] = res.FabricUtilization
	rep.Counters["run.reroutes"] = float64(res.Reroutes)
	rep.Counters["run.timeout_reroutes"] = float64(res.TimeoutReroutes)
	rep.Counters["run.failure_reroutes"] = float64(res.FailureReroutes)
	rep.Counters["run.probes_sent"] = float64(res.ProbesSent)
	rep.Counters["run.probe_overhead"] = res.ProbeOverhead

	res.Telemetry.Fill(rep) // nil-safe: no-op with telemetry off
	return rep, nil
}

func fctSummary(r metrics.Report) telemetry.FCTSummary {
	return telemetry.FCTSummary{
		Overall:        bucketStats(r.Overall),
		Small:          bucketStats(r.Small),
		Medium:         bucketStats(r.Medium),
		Large:          bucketStats(r.Large),
		Flows:          r.Flows,
		Unfinished:     r.Unfinished,
		UnfinishedFrac: r.UnfinishedFrac,
	}
}

func bucketStats(s metrics.Stats) telemetry.BucketStats {
	return telemetry.BucketStats{
		Count:  s.Count,
		MeanMs: s.Mean / 1e6,
		P50Ms:  float64(s.P50) / 1e6,
		P95Ms:  float64(s.P95) / 1e6,
		P99Ms:  float64(s.P99) / 1e6,
	}
}
