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
