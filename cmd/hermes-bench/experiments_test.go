package main

import (
	"encoding/json"
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
