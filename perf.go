package hermes

import (
	"github.com/hermes-repro/hermes/internal/perf"
)

// PerfOptions configures the performance observatory for a run
// (Config.Perf). The zero value enables profiling with defaults: wall-time
// attribution sampled 1 in 64 event fires, runtime sampled every 50ms.
type PerfOptions = perf.Options

// PerfReport is the per-run perf block carried in Result.Perf: events fired
// by kind, sim-vs-wall ratio, queue peak, peak heap, GC time share.
type PerfReport = perf.RunReport

// PerfSummary is the perf aggregate of the profiled runs a status tracker
// has seen finish — total events by kind, throughput, peak heap — with a
// live Go runtime snapshot: the /api/perf payload, and what
// Status.PerfSummary returns.
type PerfSummary = perf.Summary

// PerfLedger is the append-only benchmark trajectory stored in
// BENCH_perf.json: one entry per pinned-microbenchmark measurement, with
// machine fingerprint and VCS revision, comparable across PRs with a
// benchstat-style significance test.
type PerfLedger = perf.Ledger

// PerfLedgerEntry is one measurement in the perf ledger.
type PerfLedgerEntry = perf.LedgerEntry

// LoadPerfLedger reads a perf ledger file; a missing file yields an empty
// ledger so the first run bootstraps the trajectory.
func LoadPerfLedger(path string) (*PerfLedger, error) {
	return perf.LoadLedger(path)
}
