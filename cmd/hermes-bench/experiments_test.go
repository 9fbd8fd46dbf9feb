package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	hermes "github.com/hermes-repro/hermes"
)

// TestLoadSweepPlans checks every load-sweep figure's plan without running
// it: one config per workload, scheme and load, in the order run reads them
// (workload, then scheme, then load), and no config twice, so a figure never
// reruns what it already ran for another of its tables.
func TestLoadSweepPlans(t *testing.T) {
	planned := map[string]int{}
	for _, full := range []bool{false, true} {
		o := options{flows: 40, seed: 1, full: full}
		for _, s := range loadSweeps {
			cfgs := s.plan(o)
			nw, ns, nl := len(s.workloads), len(s.schemes), len(s.loads)
			if len(cfgs) != nw*ns*nl {
				t.Errorf("%s: plan holds %d configs, want %d workloads x %d schemes x %d loads",
					s.name, len(cfgs), nw, ns, nl)
				continue
			}
			planned[s.name] = len(cfgs)
			seen := map[string]bool{}
			for i, c := range cfgs {
				if wl, sch, l := s.workloads[i/(ns*nl)], s.schemes[i/nl%ns], s.loads[i%nl]; c.Workload != wl || c.Scheme != sch || c.Load != l {
					t.Errorf("%s: config %d is %s/%s/load %g, want %s/%s/load %g",
						s.name, i, c.Workload, c.Scheme, c.Load, wl, sch, l)
				}
				b, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				if seen[string(b)] {
					t.Errorf("%s: config %d repeats an earlier one: %s", s.name, i, b)
				}
				seen[string(b)] = true
			}
			hasHermes := false
			for _, sch := range s.schemes {
				hasHermes = hasHermes || sch == hermes.SchemeHermes
			}
			for _, tb := range s.tables {
				if tb.normalized && !hasHermes {
					t.Errorf("%s: table %q is normalized to Hermes, which it does not run", s.name, tb.title)
				}
			}
		}
	}
	if planned["fig12"] != 64 {
		t.Errorf("fig12 plans %d runs, want 64", planned["fig12"])
	}
	if len(planned) != 8 {
		t.Errorf("%d load sweeps planned, want the 8 figures 9-14, 16 and 17", len(planned))
	}
}

// TestLoadSweepPrintsOnlyFinishedTables feeds print the partial results an
// interrupt leaves: a table with no finished row prints no heading and
// writes no -csv file, and the tables after it keep their numbers.
func TestLoadSweepPrintsOnlyFinishedTables(t *testing.T) {
	sweeps := map[string]loadSweep{}
	for _, s := range loadSweeps {
		sweeps[s.name] = s
	}
	// results gives every run of s a result except those skip picks.
	results := func(s loadSweep, skip func(wl string, sch hermes.Scheme, load float64) bool) []*hermes.Result {
		var rs []*hermes.Result
		for _, c := range s.plan(options{flows: 40, seed: 1}) {
			var r *hermes.Result
			if !skip(c.Workload, c.Scheme, c.Load) {
				r = &hermes.Result{}
			}
			rs = append(rs, r)
		}
		return rs
	}
	for _, tc := range []struct {
		sweep string
		skip  func(wl string, sch hermes.Scheme, load float64) bool
		want  []string // lines stdout must hold
		never []string // text stdout must not hold
		csv   map[string]int
	}{
		{
			// Every data-mining run unfinished: its table is gone.
			sweep: "fig12",
			skip:  func(wl string, _ hermes.Scheme, _ float64) bool { return wl == "data-mining" },
			want:  []string{"[web-search] overall avg FCT (ms), symmetric baseline:", "hermes "},
			never: []string{"data-mining"},
			csv:   map[string]int{"fig12_1.csv": 9},
		},
		{
			// The web-search runs unfinished: the data-mining table keeps its
			// number.
			sweep: "fig12",
			skip:  func(wl string, _ hermes.Scheme, _ float64) bool { return wl == "web-search" },
			want:  []string{"[data-mining] overall avg FCT (ms), symmetric baseline:"},
			never: []string{"web-search"},
			csv:   map[string]int{"fig12_2.csv": 9},
		},
		{
			// One Hermes run unfinished empties every normalized table.
			sweep: "fig13",
			skip: func(_ string, sch hermes.Scheme, load float64) bool {
				return sch == hermes.SchemeHermes && load == 0.9
			},
			never: []string{"normalized", "scheme"},
			csv:   map[string]int{},
		},
		{
			// One ECMP run unfinished drops only ECMP's rows; the intro and
			// both tables print.
			sweep: "fig17",
			skip: func(_ string, sch hermes.Scheme, load float64) bool {
				return sch == hermes.SchemeECMP && load == 0.5
			},
			want:  []string{sweeps["fig17"].intro, "(a) overall avg FCT (ms):", "(b) unfinished flows (%):", "hermes "},
			never: []string{"ecmp"},
			csv:   map[string]int{"fig17_1.csv": 7, "fig17_2.csv": 7},
		},
		{
			// Nothing finished: not even the intro prints.
			sweep: "fig16",
			skip:  func(string, hermes.Scheme, float64) bool { return true },
			never: []string{"web-search", "scheme"},
			csv:   map[string]int{},
		},
	} {
		s := sweeps[tc.sweep]
		dir := t.TempDir()
		csvDir, currentExp, tableSeq = dir, s.name, 0
		out := captureStdout(t, func() {
			s.print(results(s, tc.skip))
			endCSVTable()
		})
		csvDir = ""
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output lacks %q:\n%s", s.name, w, out)
			}
		}
		for _, n := range tc.never {
			if strings.Contains(out, n) {
				t.Errorf("%s: output holds %q:\n%s", s.name, n, out)
			}
		}
		got := map[string]int{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[e.Name()] = strings.Count(string(b), "\n")
		}
		if !reflect.DeepEqual(got, tc.csv) {
			t.Errorf("%s: csv files (name: lines) %v, want %v", s.name, got, tc.csv)
		}
	}
}

// captureStdout returns what fn prints on standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
