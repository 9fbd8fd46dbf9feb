package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// statusConfig is a small scenario run: flight recorder + telemetry so every
// status surface (progress, metrics, series) carries data.
func statusConfig() Config {
	cfg := goldenConfig()
	cfg.Flows = 20
	cfg.DrainTimeoutNs = 100e6
	return cfg
}

// TestStatusDoesNotPerturbReports is the tentpole invariant: a sweep with a
// status tracker (and a live HTTP server polling it) produces byte-identical
// reports to the same sweep with the status plane off.
func TestStatusDoesNotPerturbReports(t *testing.T) {
	cfg := statusConfig()
	seeds := Seeds(1, 4)

	baseline, _, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}

	st := NewStatus()
	srv, err := ServeStatus("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Hammer the status plane while the sweep runs so observation is real.
	stopPoll := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopPoll:
				return
			default:
				resp, err := http.Get(srv.URL() + "/api/progress")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(srv.URL() + "/metrics")
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()
	observed := cfg
	observed.Status = st
	watched, _, err := RunSeeds(observed, seeds)
	close(stopPoll)
	if err != nil {
		t.Fatal(err)
	}

	for i := range seeds {
		cfgSeed := cfg
		cfgSeed.Seed = seeds[i]
		var a, b bytes.Buffer
		repA, err := BuildReport(cfgSeed, baseline[i])
		if err != nil {
			t.Fatal(err)
		}
		repB, err := BuildReport(cfgSeed, watched[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := repA.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := repB.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: report differs with status plane attached (%d vs %d bytes)",
				seeds[i], a.Len(), b.Len())
		}
	}

	// And the tracker saw the whole sweep.
	p := st.Progress()
	if p.RunsDone != len(seeds) || p.RunsPlanned != len(seeds) || p.FracDone != 1 {
		t.Fatalf("tracker missed runs: %+v", p)
	}
	sums := st.Summaries()
	if len(sums) != len(seeds) {
		t.Fatalf("summaries = %d, want %d", len(sums), len(seeds))
	}
	for _, s := range sums {
		if s.Err != "" || s.Flows != cfg.Flows || s.SimDurationNs <= 0 {
			t.Fatalf("bad summary: %+v", s)
		}
		if !strings.HasPrefix(s.Label, "hermes/load 0.4/seed ") {
			t.Fatalf("pool label not threaded: %q", s.Label)
		}
	}
}

// TestStatusLiveEndpoints drives the HTTP surface against a real completed
// sweep: progress, report, manifest, metrics and the flight-recorder series.
func TestStatusLiveEndpoints(t *testing.T) {
	st := NewStatus()
	srv, err := ServeStatus("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := statusConfig()
	cfg.Status = st
	cfg.Scenario = mustScenario(t, "spine-blackhole", cfg.Topology)
	cfg.Failure = FailureSpec{}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var progress struct {
		RunsDone int     `json:"runs_done"`
		PctDone  float64 `json:"pct_done"`
		SimNs    int64   `json:"sim_ns"`
	}
	get("/api/progress", &progress)
	if progress.RunsDone != 1 || progress.SimNs <= 0 {
		t.Fatalf("progress: %+v", progress)
	}

	var manifest Manifest
	get("/api/manifest", &manifest)
	if manifest.Module == "" || manifest.GoVersion == "" || manifest.StartTime == "" {
		t.Fatalf("manifest incomplete: %+v", manifest)
	}

	var report struct {
		Runs []struct {
			Label    string `json:"label"`
			Scenario string `json:"scenario"`
		} `json:"runs"`
	}
	get("/api/report", &report)
	if len(report.Runs) != 1 || report.Runs[0].Scenario != "spine-blackhole" {
		t.Fatalf("report: %+v", report)
	}

	// The scenario run attached its flight recorder: the retained window is
	// served with meta and the run's label.
	var series struct {
		Label   string               `json:"label"`
		TimesNs []int64              `json:"times_ns"`
		Series  map[string][]float64 `json:"series"`
		Meta    *struct {
			Scheme string `json:"scheme"`
		} `json:"meta"`
	}
	get("/api/series", &series)
	if len(series.TimesNs) == 0 || len(series.Series) == 0 {
		t.Fatalf("series empty: %d rows, %d series", len(series.TimesNs), len(series.Series))
	}
	if series.Meta == nil || series.Meta.Scheme != string(cfg.Scheme) {
		t.Fatalf("series meta: %+v", series.Meta)
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"hermes_runs_completed_total 1",
		"hermes_build_info{",
		"hermes_sim_seconds_total ",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b.String())
		}
	}
}

// TestMetricsArePerRun: /metrics exports each registry series once per run,
// labelled with the run, and sums nothing across runs. After three
// sequential REPS runs the cache hit rate is one sample, the last run's,
// equal to its report counter; summed over the three it read 1.82.
func TestMetricsArePerRun(t *testing.T) {
	st := NewStatus()
	var cfg Config
	var res *Result
	for seed := int64(1); seed <= 3; seed++ {
		cfg = Config{
			Topology: ChaosTopology(), Scheme: SchemeREPS, Workload: "web-search",
			Load: 0.5, Flows: 60, Seed: seed, Telemetry: true, Status: st,
		}
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := rep.Counters["reps.cache_hit_rate"]
	if !ok {
		t.Fatal("report has no reps.cache_hit_rate counter")
	}

	var b strings.Builder
	if err := st.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	var samples []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "hermes_reps_cache_hit_rate") {
			samples = append(samples, line)
		}
	}
	if len(samples) != 1 {
		t.Fatalf("hermes_reps_cache_hit_rate samples = %q, want one", samples)
	}
	i := strings.LastIndexByte(samples[0], ' ')
	series, value := samples[0][:i], samples[0][i+1:]
	if series != `hermes_reps_cache_hit_rate{run="reps/load 0.5/seed 3"}` {
		t.Fatalf("sample %q, want the last run's, labelled run=\"reps/load 0.5/seed 3\"", samples[0])
	}
	if got, err := strconv.ParseFloat(value, 64); err != nil || got != want {
		t.Fatalf("sample value %s, want the report counter %v", value, want)
	}
}

func mustScenario(t *testing.T, name string, topo Topology) *Scenario {
	t.Helper()
	sc, err := BuiltinScenario(name, topo)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChaosMatrixStatus: the matrix publishes cells to the tracker and stays
// deterministic while observed.
func TestChaosMatrixStatus(t *testing.T) {
	topo := Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9, HostDelayNs: 2000, FabricDelayNs: 2000}
	mc := ChaosMatrixConfig{
		Base: Config{Topology: topo, Workload: "web-search", Load: 0.4,
			Flows: 15, DrainTimeoutNs: 100e6},
		Schemes:   []Scheme{SchemeHermes, SchemeECMP},
		Scenarios: []*Scenario{mustScenario(t, "spine-blackhole", topo)},
		Seeds:     []int64{7, 8},
	}
	plain, err := RunChaosMatrix(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Manifest != nil {
		t.Fatal("RunChaosMatrix stamped a manifest; that is the CLI's job")
	}

	st := NewStatus()
	mc.Base.Status = st
	watched, err := RunChaosMatrix(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(watched)
	if !bytes.Equal(a, b) {
		t.Fatal("chaos matrix differs with status tracker attached")
	}

	p := st.Progress()
	// 2 schemes x (1 scenario + clean baseline) x 2 seeds.
	if p.RunsPlanned != 8 || p.RunsDone != 8 || p.FracDone != 1 {
		t.Fatalf("matrix progress: %+v", p)
	}
	if p.Note == "" || !strings.Contains(p.Note, "chaos matrix") {
		t.Fatalf("matrix note: %q", p.Note)
	}
	labels := map[string]bool{}
	for _, s := range st.Summaries() {
		labels[s.Label] = true
	}
	for _, want := range []string{"hermes/load 0.4/seed 7", "ecmp/spine-blackhole/load 0.4/seed 8"} {
		if !labels[want] {
			t.Fatalf("missing cell label %q in %v", want, labels)
		}
	}
}

// TestManifestStamping: WithConfig hashes the config and is stable; the
// version string is printable.
func TestManifestStamping(t *testing.T) {
	cfgJSON, err := json.Marshal(statusConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1 := BuildManifest().WithConfig(cfgJSON, []int64{1, 2, 3})
	m2 := BuildManifest().WithConfig(cfgJSON, []int64{1, 2, 3})
	if m1.ConfigHash == "" || m1.ConfigHash != m2.ConfigHash {
		t.Fatalf("config hash unstable: %q vs %q", m1.ConfigHash, m2.ConfigHash)
	}
	other := BuildManifest().WithConfig(append(cfgJSON, ' '), nil)
	if other.ConfigHash == m1.ConfigHash {
		t.Fatal("different configs hashed identically")
	}
	if len(m1.Seeds) != 3 {
		t.Fatalf("manifest: %+v", m1)
	}
	// WithConfig stamps artifacts, and artifacts are byte-identical functions
	// of (Config, Seed): no wall clock allowed.
	if m1.StartTime != "" {
		t.Fatalf("artifact manifest leaked wall clock: %+v", m1)
	}
	if BuildManifest().StartTime == "" {
		t.Fatal("live manifest missing start time")
	}
	if VersionString() == "" {
		t.Fatal("empty version string")
	}
}
