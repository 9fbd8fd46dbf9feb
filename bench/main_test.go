package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/bench/suite"
)

const facade = "github.com/hermes-repro/hermes"

// TestImportsOnlyFacadeAndStdlib keeps the end-to-end runner independent of
// the simulator's internals: every non-test file of the module outside
// layers/ may import only the standard library, the hermes facade and the
// module's own packages.
func TestImportsOnlyFacadeAndStdlib(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == "layers" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			stdlib := !strings.Contains(strings.SplitN(p, "/", 2)[0], ".")
			own := strings.HasPrefix(p, facade+"/bench/") && !strings.HasPrefix(p, facade+"/bench/layers")
			if !stdlib && p != facade && !own {
				t.Errorf("%s imports %s; only the standard library, %s and the bench module's own packages are allowed", path, p, facade)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// spec is the part of BENCHMARK.json the runners must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T, path string) spec {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeMetricsMatchBenchmarkJSON runs every workload once, small, and
// checks that it passes its own checks and prints exactly the end-to-end
// metrics BENCHMARK.json declares, with their units and never zero.
func TestSmokeMetricsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t, "../BENCHMARK.json")
	if len(s.Workloads) != len(suite.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite %d", len(s.Workloads), len(suite.Workloads))
	}
	for i, w := range suite.Workloads {
		if s.Workloads[i].Name != w.Name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the suite %q", i, s.Workloads[i].Name, w.Name)
		}
		rep, err := measure(w, suite.Args{Seed: 1, Flows: w.SmallFlows(), Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", w.Name, len(rep.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			got, ok := rep.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not printed", w.Name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0:
				t.Errorf("%s: metric %s = %v, want > 0", w.Name, m.Name, got.Value)
			}
		}
	}
}
