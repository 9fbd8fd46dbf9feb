package main

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/perf/pinned"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

// runPerfLedger is the -perf mode: execute every pinned microbenchmark count
// times via testing.Benchmark, append one ledger entry per benchmark to
// ledgerPath, and — with -perf-baseline — compare each new measurement
// against the latest prior entry of the same benchmark. Regressions print a
// "REGRESSION:" line (CI turns those into warnings); the return value is the
// regression count, but the build never fails on it: shared runners are
// noisy.
func runPerfLedger(ledgerPath string, count int, note string, baseline bool) int {
	if count < 1 {
		count = 1
	}
	ledger, err := perf.LoadLedger(ledgerPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := telemetry.BuildManifest()
	fp := perf.HostFingerprint(m.VCSRevision, m.VCSModified)
	date := time.Now().UTC().Format(time.RFC3339)

	regressions := 0
	for _, bm := range pinned.Benchmarks() {
		fmt.Printf("%-40s", bm.Name)
		samples := make([]float64, 0, count)
		var last testing.BenchmarkResult
		for i := 0; i < count; i++ {
			last = testing.Benchmark(bm.Fn)
			samples = append(samples, float64(last.NsPerOp()))
		}
		entry := perf.LedgerEntry{
			Name:        bm.Name,
			Date:        date,
			NsOp:        medianOf(samples),
			BOp:         last.AllocedBytesPerOp(),
			AllocsOp:    last.AllocsPerOp(),
			N:           last.N,
			SamplesNsOp: samples,
			Fingerprint: fp,
			Note:        note,
		}
		fmt.Printf(" %8.0f ns/op %6d B/op %4d allocs/op (%d reps)\n",
			entry.NsOp, entry.BOp, entry.AllocsOp, count)
		if baseline {
			if prev := ledger.Latest(bm.Name); prev != nil {
				c := perf.CompareEntries(*prev, entry)
				fmt.Printf("  vs %s: %s\n", prev.Date, c.String())
				if c.Regression {
					regressions++
					fmt.Printf("REGRESSION: %s\n", c.String())
				}
			} else {
				fmt.Printf("  no baseline entry in %s yet\n", ledgerPath)
			}
		}
		ledger.Append(entry)
	}
	if err := ledger.Save(ledgerPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nperf ledger: %d entries across %d benchmarks -> %s\n",
		len(ledger.Entries), len(ledger.Names()), ledgerPath)
	return regressions
}

// medianOf returns the median of a sample set (ns/op is long-tailed under
// scheduler noise, so the median is steadier than the mean in the ledger).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printPerfAggregate renders the -perf-runs summary of the status tracker's
// perf aggregate after all experiments finish: how much simulator work ran,
// at what throughput, and what it cost the Go runtime.
func printPerfAggregate(st *hermes.Status) {
	s := st.PerfSummary()
	if s.RunsProfiled == 0 {
		return
	}
	fmt.Printf("\n---------------- perf observatory (%d runs) ----------------\n", s.RunsProfiled)
	fmt.Printf("events fired     %d (queue peak %d)\n", s.EventsTotal, s.QueuePeak)
	fmt.Printf("sim/wall ratio   %.2fx (%.3fs simulated in %.3fs)\n",
		s.SimPerWall, float64(s.SimNs)/1e9, float64(s.WallNs)/1e9)
	fmt.Printf("peak heap        %.1f MiB, GC cycles %d, goroutines now %d\n",
		float64(s.PeakHeapBytes)/(1<<20), s.Runtime.GCCycles, s.Runtime.Goroutines)
	if len(s.EventsByKind) > 0 {
		kinds := make([]string, 0, len(s.EventsByKind))
		for k := range s.EventsByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool {
			return s.EventsByKind[kinds[i]] > s.EventsByKind[kinds[j]]
		})
		fmt.Printf("events by kind  ")
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, s.EventsByKind[k])
		}
		fmt.Println()
	}
}
