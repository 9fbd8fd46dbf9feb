// Package perf is the simulator's performance observatory: it watches the
// simulator itself rather than the simulated fabric. It aggregates three
// signal sources — the engine's per-event-kind self-profile (sim.Profile),
// a wall-clock Go runtime sampler (heap, GC, goroutines, CPU), and a
// persistent benchmark ledger (BENCH_perf.json) with a benchstat-style
// significance comparator — into per-run reports, the cross-run Observatory
// aggregate that the internal/statusd tracker holds and exports, and
// regression verdicts for CI.
//
// Everything here deals in wall-clock time and machine state, which is why
// none of it may leak into the deterministic report/scorecard artifacts:
// perf output lives only in Result.Perf, the status tracker, and the ledger.
package perf

import (
	"fmt"
	"io"
	"sort"

	"github.com/hermes-repro/hermes/internal/sim"
)

// Options configures per-run self-profiling (Config.Perf on the facade).
// The zero value enables profiling with defaults.
type Options struct {
	// SampleEvery is the engine's wall-time sampling stride: 1 in N fired
	// events is timed. <= 0 uses sim.DefaultSampleEvery (64). Fire counts
	// are always exact; only time attribution is sampled.
	SampleEvery int `json:",omitempty"`

	// RuntimeIntervalMs is the wall-clock interval of the Go runtime
	// sampler in milliseconds. <= 0 uses 50ms.
	RuntimeIntervalMs int `json:",omitempty"`
}

// KindStat is one event kind's share of a profiled run.
type KindStat struct {
	Kind         string
	Count        uint64
	SampledFires uint64  `json:",omitempty"`
	SampledNs    int64   `json:",omitempty"`
	EstSharePct  float64 `json:",omitempty"` // share of attributed wall time
}

// RunReport is the per-run perf block carried in Result.Perf: where engine
// time went, how fast virtual time advanced against the wall clock, and
// what the Go runtime did meanwhile. It is wall-clock data — informative,
// machine-dependent, and deliberately excluded from deterministic reports.
type RunReport struct {
	EventsTotal uint64
	ByKind      []KindStat `json:",omitempty"`
	QueuePeak   int
	SampleEvery int

	SimNs        int64
	WallNs       int64
	SimPerWall   float64 // virtual ns advanced per wall ns (higher is faster)
	EventsPerSec float64 // fired events per wall second

	PeakHeapBytes  uint64
	GCCycles       uint32
	GCPauseNs      uint64
	GCTimeSharePct float64
	PeakGoroutines int     `json:",omitempty"`
	GOMAXPROCS     int     `json:",omitempty"`
	CPUUtilization float64 `json:",omitempty"` // mean busy fraction of GOMAXPROCS
	RuntimeSamples int     `json:",omitempty"`
}

// BuildRunReport assembles the per-run perf block from the engine profile,
// the run's virtual and wall durations, and the runtime sampler's
// aggregates (rs may be nil when no sampler ran).
func BuildRunReport(p *sim.Profile, simNs, wallNs int64, rs *RuntimeStats) *RunReport {
	r := &RunReport{
		EventsTotal: p.Total(),
		QueuePeak:   p.QueuePeak(),
		SampleEvery: p.SampleEvery(),
		SimNs:       simNs,
		WallNs:      wallNs,
	}
	if wallNs > 0 {
		r.SimPerWall = float64(simNs) / float64(wallNs)
		r.EventsPerSec = float64(r.EventsTotal) / (float64(wallNs) / 1e9)
	}
	var totalSampledNs int64
	for k := 0; k < sim.NumKinds; k++ {
		totalSampledNs += p.SampledNs(sim.Kind(k))
	}
	for k := 0; k < sim.NumKinds; k++ {
		kk := sim.Kind(k)
		if p.Count(kk) == 0 {
			continue
		}
		ks := KindStat{
			Kind:         kk.String(),
			Count:        p.Count(kk),
			SampledFires: p.SampledFires(kk),
			SampledNs:    p.SampledNs(kk),
		}
		if totalSampledNs > 0 {
			ks.EstSharePct = 100 * float64(ks.SampledNs) / float64(totalSampledNs)
		}
		r.ByKind = append(r.ByKind, ks)
	}
	sort.Slice(r.ByKind, func(i, j int) bool {
		if r.ByKind[i].Count != r.ByKind[j].Count {
			return r.ByKind[i].Count > r.ByKind[j].Count
		}
		return r.ByKind[i].Kind < r.ByKind[j].Kind
	})
	if rs != nil {
		r.PeakHeapBytes = rs.PeakHeapBytes
		r.GCCycles = rs.GCCycles
		r.GCPauseNs = rs.GCPauseNs
		r.PeakGoroutines = rs.PeakGoroutines
		r.GOMAXPROCS = rs.GOMAXPROCS
		r.CPUUtilization = rs.CPUUtilization
		r.RuntimeSamples = rs.Samples
		if wallNs > 0 {
			r.GCTimeSharePct = 100 * float64(rs.GCPauseNs) / float64(wallNs)
		}
	}
	return r
}

// RenderText writes the human-readable perf block the CLIs print.
func (r *RunReport) RenderText(w io.Writer) {
	fmt.Fprintf(w, "perf: %s events fired (queue peak %d), %s sim ns in %s wall ns (%.1fx realtime, %s events/sec)\n",
		humanCount(r.EventsTotal), r.QueuePeak,
		humanCount(uint64(r.SimNs)), humanCount(uint64(r.WallNs)),
		r.SimPerWall, humanCount(uint64(r.EventsPerSec)))
	if len(r.ByKind) > 0 {
		fmt.Fprintf(w, "  by kind (wall-time attribution sampled 1/%d):\n", r.SampleEvery)
		for _, ks := range r.ByKind {
			fmt.Fprintf(w, "    %-10s %12s fires", ks.Kind, humanCount(ks.Count))
			if ks.SampledFires > 0 {
				fmt.Fprintf(w, "  ~%5.1f%% of event time (%d sampled)", ks.EstSharePct, ks.SampledFires)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  runtime: peak heap %s, %d GC cycles (%.2f%% of wall in pauses)",
		humanBytes(r.PeakHeapBytes), r.GCCycles, r.GCTimeSharePct)
	if r.PeakGoroutines > 0 {
		fmt.Fprintf(w, ", %d goroutines peak / GOMAXPROCS %d", r.PeakGoroutines, r.GOMAXPROCS)
	}
	if r.CPUUtilization > 0 {
		fmt.Fprintf(w, ", %.0f%% CPU", 100*r.CPUUtilization)
	}
	fmt.Fprintln(w)
}

// RenderText writes the cross-run aggregate the CLIs print: a total line
// starting "perf: N runs profiled", fires by event kind (most first) and
// the runtime cost. A summary of no runs renders nothing.
func (s Summary) RenderText(w io.Writer) {
	if s.RunsProfiled == 0 {
		return
	}
	fmt.Fprintf(w, "perf: %d runs profiled, %s events fired (queue peak %d), %.3fs simulated in %.3fs wall (%.2fx realtime)\n",
		s.RunsProfiled, humanCount(s.EventsTotal), s.QueuePeak,
		float64(s.SimNs)/1e9, float64(s.WallNs)/1e9, s.SimPerWall)
	if len(s.EventsByKind) > 0 {
		kinds := make([]string, 0, len(s.EventsByKind))
		for k := range s.EventsByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool {
			a, b := s.EventsByKind[kinds[i]], s.EventsByKind[kinds[j]]
			return a > b || a == b && kinds[i] < kinds[j]
		})
		fmt.Fprint(w, "  by kind:")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%s", k, humanCount(s.EventsByKind[k]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  runtime: peak heap %s, %d GC cycles, %d goroutines now\n",
		humanBytes(s.PeakHeapBytes), s.Runtime.GCCycles, s.Runtime.Goroutines)
}

func humanCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e4:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func humanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
