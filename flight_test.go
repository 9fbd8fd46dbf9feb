package hermes

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/timeseries"
)

// flightConfig is a small Hermes run with the flight recorder on and a
// flapping leaf0-spine0 link: the link degrades to 1 Mbps at
// FlapPeriodNs-FlapDownNs = 4 ms and restores at 10 ms. The degradation (not
// a full cut) keeps probes flowing on the sick paths, which is how Hermes
// actually senses gray failures (§3.2: probing only covers available paths).
func flightConfig() Config {
	return Config{
		Topology: Topology{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostRateBps: 1e9, FabricRateBps: 1e9,
			HostDelayNs: 2000, FabricDelayNs: 2000,
		},
		Scheme:   SchemeHermes,
		Workload: "web-search",
		Load:     0.6,
		Flows:    80,
		Seed:     7,
		Failure: FailureSpec{
			Kind: FailureFlap, CutLeaf: 0, CutSpine: 0,
			FlapPeriodNs: 10e6, FlapDownNs: 6e6, DegradedBps: 1e6,
		},
		TimeSeries:           true,
		TimeSeriesIntervalNs: 100_000,
		TimeSeriesCap:        32768, // the flap stretches the run well past the default cap
		DrainTimeoutNs:       500e6,
	}
}

func timeseriesBytes(t *testing.T, rec *timeseries.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimeSeriesParallelMatchesSequential extends the worker-pool
// determinism guarantee to the flight recorder: the serialized time series
// (samples, every registered series, the transition log) must be
// byte-identical between a sequential Run and a RunConfigs batch for each
// seed.
func TestTimeSeriesParallelMatchesSequential(t *testing.T) {
	seeds := Seeds(7, 3)
	if testing.Short() {
		seeds = Seeds(7, 2)
	}
	cfg := flightConfig()

	seq := make([][]byte, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := Run(c)
		if err != nil {
			t.Fatalf("sequential seed %d: %v", s, err)
		}
		seq[i] = timeseriesBytes(t, res.TimeSeries)
	}

	par, err := RunConfigs(context.Background(), seedConfigs(cfg, seeds),
		ParallelOptions{Workers: len(seeds)})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i, s := range seeds {
		if got := timeseriesBytes(t, par[i].TimeSeries); !bytes.Equal(got, seq[i]) {
			t.Errorf("seed %d: parallel time series differs from sequential (%d vs %d bytes)",
				s, len(got), len(seq[i]))
		}
	}
}

// TestFlightRecorderCapturesLinkFlap is the acceptance check for the flight
// recorder: with a link degradation injected mid-run it must record
// (a) per-port queue-depth series aligned with the sample clock,
// (b) a Hermes path census whose good/bad occupancy visibly shifts within
// one probe interval of the cut, and (c) state transitions in the log
// explaining the shift.
func TestFlightRecorderCapturesLinkFlap(t *testing.T) {
	cfg := flightConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.TimeSeries
	if rec == nil || rec.Len() == 0 {
		t.Fatal("Config.TimeSeries produced no recording")
	}

	// (a) Per-port queue depth, sampled on the recorder clock.
	queuePorts := 0
	for _, name := range rec.Names() {
		if !strings.HasPrefix(name, "net.port.queue_bytes{port=") {
			continue
		}
		queuePorts++
		if got := len(rec.Series(name)); got != rec.Len() {
			t.Fatalf("series %s has %d samples, want %d", name, got, rec.Len())
		}
	}
	if want := 2 * 2 * 2; queuePorts != want { // leaf up + spine down per pair
		t.Fatalf("queue-depth series for %d fabric ports, want %d", queuePorts, want)
	}

	// (b) Census shift: compare the last pre-cut sample against the window
	// shortly after the cut at 4 ms. The first post-cut probe is dispatched
	// within one probe interval (500 us); its return — slowed to ~1 ms by
	// the degraded link it is sensing — lands the demotion.
	const (
		cutNs    = int64(4e6) // FlapPeriodNs - FlapDownNs
		windowNs = cutNs + 2_000_000
	)
	sumAt := func(metric string, i int) float64 {
		var s float64
		for _, name := range rec.Names() {
			if strings.HasPrefix(name, "hermes.paths_"+metric+"{") {
				s += rec.Series(name)[i]
			}
		}
		return s
	}
	times := rec.Times()
	pre, post := -1, -1
	for i, at := range times {
		if at <= cutNs {
			pre = i
		}
		if at <= windowNs {
			post = i
		}
	}
	if pre < 0 || post <= pre {
		t.Fatalf("recording does not span the cut: %d samples over [%d, %d]",
			len(times), times[0], times[len(times)-1])
	}
	preBad := sumAt("congested", pre) + sumAt("failed", pre)
	postBad := sumAt("congested", post) + sumAt("failed", post)
	preGood := sumAt("good", pre)
	postGood := sumAt("good", post)
	if postBad <= preBad && postGood >= preGood {
		t.Errorf("census did not shift within one probe interval of the cut: "+
			"good %v -> %v, congested+failed %v -> %v", preGood, postGood, preBad, postBad)
	}

	// (c) The transition log explains the shift: some path left the good
	// state (or turned congested/failed) inside the window.
	found := false
	for _, tr := range rec.Transitions.All() {
		if tr.AtNs > cutNs && tr.AtNs <= windowNs &&
			(tr.From == "good" || tr.To == "congested" || tr.To == "failed") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no path-state transition away from good in (%d, %d]; %d transitions total",
			cutNs, windowNs, len(rec.Transitions.All()))
	}
}

// TestFCTP99SeriesMatchesRunP99: the flight ring's transport.fct_p99_ms
// sees every completed logical flow, MPTCP groups and RepFlow races
// included, so with fewer completions than its window its final sample is
// the run's p99.
func TestFCTP99SeriesMatchesRunP99(t *testing.T) {
	for _, s := range []Scheme{SchemeECMP, SchemeMPTCP, SchemeRepFlow} {
		res := mustRun(t, Config{
			Topology: TestbedTopology(), Scheme: s, Workload: "web-search",
			Load: 0.5, Flows: 300, Seed: 1, TimeSeries: true,
		})
		if res.FCT.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished flows; the ring only sees completions", s, res.FCT.Unfinished)
		}
		p99 := res.TimeSeries.Series("transport.fct_p99_ms")
		if got, want := p99[len(p99)-1], res.FCT.Overall.P99Ms(); got != want {
			t.Errorf("%s: last fct_p99_ms sample %.3f ms, run p99 %.3f ms", s, got, want)
		}
	}
}
