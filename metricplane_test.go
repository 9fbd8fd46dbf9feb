package hermes

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// metricPlanePinsPath holds the digests TestMetricPlanePins compares against.
// Regenerate with `go test -run MetricPlanePins -update` and review the diff.
var metricPlanePinsPath = filepath.Join("testdata", "metric_plane_pins.json")

// metricPlaneDigests are the SHA-256 digests of one observed run's artifacts.
type metricPlaneDigests struct {
	Report     string `json:"report"`
	FlightJSON string `json:"flight_jsonl"`
	FlightCSV  string `json:"flight_csv"`
	Alerts     string `json:"alerts"`
	Visibility string `json:"visibility"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// metricPlaneRun runs the spine-blackhole chaos cell with every metric sink
// armed (report sweep, flight ring at 1 ms, builtin alerts, Table 2
// visibility) and digests each artifact.
func metricPlaneRun(t *testing.T, scheme Scheme) metricPlaneDigests {
	t.Helper()
	sc, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(scheme, sc)
	cfg.Flows = 40
	cfg.Telemetry = true
	cfg.TimeSeries = true
	cfg.TimeSeriesIntervalNs = 1e6
	cfg.Alerts = &AlertsConfig{Builtin: true}
	cfg.MeasureVisibility = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	var d metricPlaneDigests
	var buf bytes.Buffer
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d.Report = sha256Hex(buf.Bytes())
	buf.Reset()
	if err := res.TimeSeries.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d.FlightJSON = sha256Hex(buf.Bytes())
	buf.Reset()
	if err := res.TimeSeries.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d.FlightCSV = sha256Hex(buf.Bytes())
	buf.Reset()
	if err := WriteAlertLog(&buf, string(scheme), res.Alerts); err != nil {
		t.Fatal(err)
	}
	d.Alerts = sha256Hex(buf.Bytes())
	vis := strconv.FormatFloat(res.VisibilitySwitchPair, 'g', -1, 64) + " " +
		strconv.FormatFloat(res.VisibilityHostPair, 'g', -1, 64)
	d.Visibility = sha256Hex([]byte(vis))
	return d
}

// TestMetricPlanePins pins every metric sink's bytes for four schemes whose
// metrics are declared in different layers (Hermes in core, REPS in lb,
// RepFlow and MPTCP in transport). The alert log's event order follows the
// flight ring's registration order, so a reordered declaration shows too.
func TestMetricPlanePins(t *testing.T) {
	schemes := []Scheme{SchemeHermes, SchemeREPS, SchemeRepFlow, SchemeMPTCP}
	got := map[Scheme]metricPlaneDigests{}
	for _, s := range schemes {
		got[s] = metricPlaneRun(t, s)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricPlanePinsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(metricPlanePinsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[Scheme]metricPlaneDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		if got[s] != want[s] {
			t.Errorf("%s: metric-plane artifacts differ from %s:\n got %+v\nwant %+v",
				s, metricPlanePinsPath, got[s], want[s])
		}
	}
}

// flightRingPinsPath holds the digests TestFlightRingPins compares against.
// Regenerate with `go test -run FlightRingPins -update` and review the diff.
var flightRingPinsPath = filepath.Join("testdata", "flight_ring_pins.json")

// flightRingDigests are the SHA-256 digests of one run's flight exports and
// alert log, with the recording's shape.
type flightRingDigests struct {
	Rows       int    `json:"rows"`
	Truncated  int    `json:"truncated"`
	Series     int    `json:"series"`
	FlightJSON string `json:"flight_jsonl"`
	FlightCSV  string `json:"flight_csv"`
	Alerts     string `json:"alerts"`
}

// TestFlightRingPins pins the flight ring at its default 100 µs interval
// on TestMetricPlanePins' Hermes spine-blackhole cell: ten times the rows
// of that test's 1 ms ring, once at the scenario's default cap and once at
// a cap of 1000, which the run's 3,201 rows overflow three times over.
func TestFlightRingPins(t *testing.T) {
	caps := []int{0, 1000}
	got := map[string]flightRingDigests{}
	for _, c := range caps {
		sc, err := BuiltinScenario("spine-blackhole", ChaosTopology())
		if err != nil {
			t.Fatal(err)
		}
		cfg := chaosConfig(SchemeHermes, sc)
		cfg.Flows = 40
		cfg.TimeSeries = true
		cfg.TimeSeriesCap = c
		cfg.Alerts = &AlertsConfig{Builtin: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := res.TimeSeries
		d := flightRingDigests{Rows: rec.Len(), Truncated: rec.TruncatedSamples(), Series: len(rec.Names())}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		d.FlightJSON = sha256Hex(buf.Bytes())
		buf.Reset()
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		d.FlightCSV = sha256Hex(buf.Bytes())
		buf.Reset()
		if err := WriteAlertLog(&buf, string(SchemeHermes), res.Alerts); err != nil {
			t.Fatal(err)
		}
		d.Alerts = sha256Hex(buf.Bytes())
		got["cap="+strconv.Itoa(c)] = d
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flightRingPinsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(flightRingPinsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[string]flightRingDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned recordings, want %d", len(got), len(want))
	}
	for k, g := range got {
		if g != want[k] {
			t.Errorf("%s: flight artifacts differ from %s:\n got %+v\nwant %+v",
				k, flightRingPinsPath, g, want[k])
		}
	}
}
