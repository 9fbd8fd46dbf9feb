package hermes

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Comparison is a multi-scheme, multi-seed experiment matrix: the
// programmatic equivalent of one hermes-bench table, exposed through the
// public API so downstream users can build their own evaluations.
type Comparison struct {
	Schemes []Scheme
	Seeds   []int64
	// Base is the shared configuration; Scheme and Seed are overwritten.
	Base Config
	// Workers bounds the per-scheme worker pool (0 = process default).
	Workers int
	// Context, when non-nil, cancels the whole matrix; nil is the
	// SetDefaultRunContext process default.
	Context context.Context
}

// ComparisonRow is the aggregate outcome for one scheme.
type ComparisonRow struct {
	Scheme Scheme
	Stats  SeedStats
	// Results holds the per-seed raw results.
	Results []*Result
}

// Run executes the matrix (schemes sequentially, seeds in parallel) and
// returns rows in the order of c.Schemes.
func (c Comparison) Run() ([]ComparisonRow, error) {
	if len(c.Schemes) == 0 {
		return nil, fmt.Errorf("hermes: comparison needs at least one scheme")
	}
	seeds := c.Seeds
	if len(seeds) == 0 {
		seeds = Seeds(1, 1)
	}
	rows := make([]ComparisonRow, 0, len(c.Schemes))
	for _, sch := range c.Schemes {
		cfg := c.Base
		cfg.Scheme = sch
		results, stats, err := RunSeedsOpts(c.Context, cfg, seeds, ParallelOptions{Workers: c.Workers})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sch, err)
		}
		rows = append(rows, ComparisonRow{Scheme: sch, Stats: stats, Results: results})
	}
	return rows, nil
}

// WriteReport renders rows as a ranked text table with the winner first and
// each scheme's mean normalized to it.
func WriteReport(w io.Writer, rows []ComparisonRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("hermes: empty comparison")
	}
	ranked := make([]ComparisonRow, len(rows))
	copy(ranked, rows)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Stats.Mean < ranked[j].Stats.Mean })
	best := ranked[0].Stats.Mean
	if _, err := fmt.Fprintf(w, "%-14s %12s %10s %10s %8s\n",
		"scheme", "avg FCT(ms)", "stddev", "vs best", "seeds"); err != nil {
		return err
	}
	for _, r := range ranked {
		rel := "1.00x"
		if best > 0 {
			rel = fmt.Sprintf("%.2fx", r.Stats.Mean/best)
		}
		if _, err := fmt.Fprintf(w, "%-14s %12.3f %10.3f %10s %8d\n",
			r.Scheme, r.Stats.Mean, r.Stats.StdDev, rel, r.Stats.N); err != nil {
			return err
		}
	}
	return nil
}

// ReportString renders WriteReport into a string.
func ReportString(rows []ComparisonRow) string {
	var sb strings.Builder
	if err := WriteReport(&sb, rows); err != nil {
		return err.Error()
	}
	return sb.String()
}
