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
// "REGRESSION:" line (CI turns those into warnings), but never fail the
// command: shared runners are noisy.
func runPerfLedger(ledgerPath string, count int, note string, baseline bool) error {
	if count < 1 {
		count = 1
	}
	ledger, err := perf.LoadLedger(ledgerPath)
	if err != nil {
		return err
	}
	m := telemetry.BuildManifest()
	fp := perf.HostFingerprint(m.VCSRevision, m.VCSModified)
	date := time.Now().UTC().Format(time.RFC3339)

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
					fmt.Printf("REGRESSION: %s\n", c.String())
				}
			} else {
				fmt.Printf("  no baseline entry in %s yet\n", ledgerPath)
			}
		}
		ledger.Append(entry)
	}
	if err := ledger.Save(ledgerPath); err != nil {
		return err
	}
	fmt.Printf("\nperf ledger: %d entries across %d benchmarks -> %s\n",
		len(ledger.Entries), len(ledger.Names()), ledgerPath)
	return nil
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

// printPerfAggregate prints the -perf-runs block after all experiments
// finish: the status tracker's perf aggregate, set off by a blank line.
func printPerfAggregate(st *hermes.Status) {
	if s := st.PerfSummary(); s.RunsProfiled > 0 {
		fmt.Println()
		s.RenderText(os.Stdout)
	}
}
