package hermes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hermes-repro/hermes/internal/chaos"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/trace"
	"github.com/hermes-repro/hermes/internal/transport"
)

// eventPlanePinsPath holds the digests TestEventPlanePins compares against.
// Regenerate with `go test -run EventPlanePins -update` and review the diff.
var eventPlanePinsPath = filepath.Join("testdata", "event_plane_pins.json")

// eventPlaneDigests are the SHA-256 digests of one traced, audited and
// flight-recorded run's event artifacts.
type eventPlaneDigests struct {
	Trace       string `json:"trace_jsonl"`
	Perfetto    string `json:"perfetto"`
	Audit       string `json:"audit_jsonl"`
	FlightJSON  string `json:"flight_jsonl"`
	FlightCSV   string `json:"flight_csv"`
	Alerts      string `json:"alerts"`
	Attribution string `json:"attribution"`
}

// eventPlaneCell is one Hermes chaos cell on ChaosTopology and the event kinds
// it must emit, so a pin cannot pass by recording nothing.
type eventPlaneCell struct {
	name     string
	scenario string
	flows    int
	load     float64
	kinds    []string
}

// eventPlaneCells together emit every event kind the builtin scenarios
// produce at this size. Kinds read "audit:<kind>:<reason>",
// "trace:<kind>" and "transition:<cause>".
var eventPlaneCells = []eventPlaneCell{
	{name: "spine-blackhole", scenario: "spine-blackhole", flows: 40, load: 0.5, kinds: []string{
		"audit:verdict:probe-loss", "audit:chaos:inject", "audit:place:fresh",
		"trace:start", "trace:place", "trace:done",
		"transition:verdict:probe-loss", "transition:ack", "transition:probe",
	}},
	{name: "flap", scenario: "flap", flows: 80, load: 0.7, kinds: []string{
		"audit:reroute:congestion", "audit:place:timeout", "audit:chaos:clear",
		"trace:retx", "trace:rto", "trace:move", "trace:ecn",
	}},
	{name: "drop-recover", scenario: "drop-recover", flows: 80, load: 0.7, kinds: []string{
		"audit:verdict:silent-drop", "transition:verdict:silent-drop", "trace:drop",
	}},
}

// eventPlaneRun runs one cell with every event sink armed (audit log,
// trace, flight ring at 1 ms with transitions, builtin alerts), digests each
// artifact and counts the kinds it emitted.
func eventPlaneRun(t *testing.T, c eventPlaneCell) (eventPlaneDigests, map[string]int) {
	t.Helper()
	sc, err := BuiltinScenario(c.scenario, ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, sc)
	cfg.Flows = c.flows
	cfg.Load = c.load
	cfg.Telemetry = true
	cfg.Trace = true
	cfg.TimeSeries = true
	cfg.TimeSeriesIntervalNs = 1e6
	cfg.Alerts = &AlertsConfig{Builtin: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var d eventPlaneDigests
	var buf bytes.Buffer
	digest := func(dst *string, write func(*bytes.Buffer) error) {
		t.Helper()
		buf.Reset()
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		*dst = sha256Hex(buf.Bytes())
	}
	digest(&d.Trace, func(b *bytes.Buffer) error { return res.Trace.WriteJSONL(b) })
	digest(&d.Perfetto, func(b *bytes.Buffer) error { return res.Trace.WritePerfetto(b) })
	digest(&d.Audit, func(b *bytes.Buffer) error { return res.Telemetry.Audit.WriteJSONL(b) })
	digest(&d.FlightJSON, func(b *bytes.Buffer) error { return res.TimeSeries.WriteJSONL(b) })
	digest(&d.FlightCSV, func(b *bytes.Buffer) error { return res.TimeSeries.WriteCSV(b) })
	digest(&d.Alerts, func(b *bytes.Buffer) error { return WriteAlertLog(b, c.name, res.Alerts) })
	digest(&d.Attribution, func(b *bytes.Buffer) error {
		return json.NewEncoder(b).Encode(res.Trace.Attribution())
	})

	kinds := map[string]int{}
	for _, e := range res.Telemetry.Audit.All() {
		kinds["audit:"+string(e.Kind)+":"+e.Reason]++
	}
	for _, e := range res.Trace.Events.All() {
		kinds["trace:"+string(e.Kind)]++
	}
	for _, tr := range res.TimeSeries.Transitions.All() {
		kinds["transition:"+tr.Cause]++
	}
	return d, kinds
}

// TestEventPlanePins pins every event sink's bytes — the trace JSONL and
// its Perfetto export, the audit JSONL, the flight recording with its
// path-state transitions, the alert log and the FCT attribution — for three
// Hermes chaos cells that together emit every event kind.
func TestEventPlanePins(t *testing.T) {
	got := map[string]eventPlaneDigests{}
	for _, c := range eventPlaneCells {
		d, kinds := eventPlaneRun(t, c)
		got[c.name] = d
		for _, k := range c.kinds {
			if kinds[k] == 0 {
				t.Errorf("%s: no %s events (emitted: %v)", c.name, k, kinds)
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventPlanePinsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(eventPlanePinsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[string]eventPlaneDigests
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range eventPlaneCells {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: event-plane artifacts differ from %s:\n got %+v\nwant %+v",
				c.name, eventPlanePinsPath, got[c.name], want[c.name])
		}
	}
}

// TestPrestoReorderTracePins pins the trace artifacts of one traced Presto*
// run with its receive-side reordering buffer on (the scheme's default 400
// us). A buffer release re-sends ACKs built from a copy of the data segment
// that opened the hole, after the fabric has recycled that segment, so this
// pin covers what the copy must carry: the spans' queue_ns come from those
// ACKs' queue echoes.
func TestPrestoReorderTracePins(t *testing.T) {
	topo := SmallTopology()
	res := mustRun(t, Config{
		Topology: topo, Scheme: SchemePresto,
		Workload: "web-search", Load: 0.8, Flows: 300, Seed: 3,
		Failure: FailureSpec{Kind: FailureDegrade, Spine: -1, SrcLeaf: 0, DstLeaf: topo.Leaves - 1},
		Trace:   true,
	})
	var buf bytes.Buffer
	for _, c := range []struct {
		name  string
		write func(*bytes.Buffer) error
		want  string
	}{
		{"trace", func(b *bytes.Buffer) error { return res.Trace.WriteJSONL(b) },
			"f347c8e74141da76f2472acea8eae9d9984084335879a327b953aeea4f486ca1"},
		{"perfetto", func(b *bytes.Buffer) error { return res.Trace.WritePerfetto(b) },
			"3c0951f8a55294ba68e6683f8c37b7413c5313fe3f951da2af9bcb40b406ae1c"},
		{"attribution", func(b *bytes.Buffer) error { return json.NewEncoder(b).Encode(res.Trace.Attribution()) },
			"67db39f05beb0984fbefe7083628f17a8da3f359b56dd1a86b27e36faac1a44e"},
	} {
		buf.Reset()
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sha256Hex(buf.Bytes()); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestVerdictNamesItsRack: every verdict names the leaf whose monitor issued
// it — in the audit JSONL, in the trace's verdict lines, and as the thread of
// Perfetto's monitor track, whose ids must be leaves (JSON readers lose
// integers past 2^53).
func TestVerdictNamesItsRack(t *testing.T) {
	sc, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, sc)
	cfg.Flows = 40
	cfg.Telemetry = true
	cfg.Trace = true
	res := mustRun(t, cfg)
	leaves := cfg.Topology.Leaves

	verdictLeaves := func(name string, write func(*bytes.Buffer) error) map[int]int {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var e struct {
				Kind    string `json:"kind"`
				SrcLeaf *int   `json:"src_leaf"`
			}
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if e.Kind != "verdict" {
				continue
			}
			if e.SrcLeaf == nil || *e.SrcLeaf < 0 || *e.SrcLeaf >= leaves {
				t.Fatalf("%s: verdict without its source leaf: %s", name, line)
			}
			seen[*e.SrcLeaf]++
		}
		if len(seen) == 0 {
			t.Fatalf("%s: no verdicts", name)
		}
		return seen
	}
	audit := verdictLeaves("audit", func(b *bytes.Buffer) error { return res.Telemetry.Audit.WriteJSONL(b) })
	traced := verdictLeaves("trace", func(b *bytes.Buffer) error { return res.Trace.WriteJSONL(b) })
	if len(audit) != len(traced) {
		t.Fatalf("verdicts per leaf: audit %v, trace %v", audit, traced)
	}

	var buf bytes.Buffer
	if err := res.Trace.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Pid  int            `json:"pid"`
			Tid  float64        `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	threads := map[[2]float64]any{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			threads[[2]float64{float64(e.Pid), e.Tid}] = e.Args["name"]
		}
	}
	perLeaf := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Cat != "verdict" {
			continue
		}
		leaf := int(e.Tid)
		if e.Tid < 0 || e.Tid >= float64(leaves) || float64(leaf) != e.Tid {
			t.Fatalf("verdict on monitor thread %v, want a leaf below %d", e.Tid, leaves)
		}
		if name := threads[[2]float64{float64(e.Pid), e.Tid}]; name != fmt.Sprintf("leaf %d", leaf) {
			t.Fatalf("monitor thread %d is named %v", leaf, name)
		}
		perLeaf[leaf]++
	}
	if len(perLeaf) != len(audit) {
		t.Fatalf("verdicts per leaf: audit %v, perfetto %v", audit, perLeaf)
	}
	for l, n := range audit {
		if perLeaf[l] != n {
			t.Fatalf("verdicts per leaf: audit %v, perfetto %v", audit, perLeaf)
		}
	}
}

// TestDisarmedEventLogsAllocNothing: with every event log disarmed (nil),
// the sites that would record an event — Hermes placement and reroute, the
// monitor's verdict and transition intake, the chaos runner hook and the
// trace hooks — allocate nothing.
func TestDisarmedEventLogsAllocNothing(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 4, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams(nw)
	p.ProbeInterval = 0
	p.SBytes = 0 // open the caution gates: every congested call reroutes
	p.RBps = 1e18
	p.RerouteCooldown = 0
	mon := core.NewMonitor(nw, 0, p)
	h := core.New(mon, sim.NewRNG(2), 0)
	rec := &trace.Recorder{} // a trace whose logs are all disarmed
	bal := trace.Wrap(h, rec, eng)
	tr := transport.New(nw, transport.DefaultOptions(), func(host *net.Host) transport.Balancer {
		if host.ID == 0 {
			return bal
		}
		return &lb.ECMP{Net: nw}
	})
	f := tr.StartFlow(0, 2, 10_000_000)
	eng.Run(100 * sim.Microsecond)
	cur, dst := f.CurPath, f.DstLeaf
	good := (cur + 1) % 4
	for i := 0; i < 50; i++ {
		mon.OnDelivery(dst, cur, true, p.TRTTHigh+100*sim.Microsecond)
		mon.OnDelivery(dst, good, false, p.TRTTLow-sim.Microsecond)
	}
	if bal.SelectPath(f) != good || h.Reroutes == 0 {
		t.Fatalf("setup: no congestion reroute off path %d", cur)
	}
	condemned := (cur + 2) % 4
	ack := transport.AckEvent{Path: good, RTT: p.TRTTLow - sim.Microsecond}

	r := &run{}
	runner := &chaos.Runner{}
	r.attachRunnerAudit(runner)
	applied := &chaos.Applied{Name: "bh", Label: "spine0", OnsetNs: 1, ClearNs: 2}

	sites := []struct {
		name string
		fn   func()
	}{
		{"reroute", func() { bal.SelectPath(f) }},
		{"placement", func() { f.TimedOut = true; bal.SelectPath(f) }},
		{"verdict", func() {
			for i := 0; i <= p.TimeoutsForBlackhole; i++ {
				bal.OnTimeout(f, condemned)
			}
		}},
		{"transition intake", func() {
			bal.OnAck(f, ack)
			mon.OnProbeResult(dst, good, false, false, ack.RTT)
			mon.ScanTransitions(timeseries.CauseHoldExpired)
		}},
		{"chaos runner hook", func() { runner.OnEvent(applied, false); runner.OnEvent(applied, true) }},
		{"trace hooks", func() {
			bal.OnRetransmit(f, good)
			rec.NoteDrop(eng.Now(), f.ID, good)
			rec.NoteMark(eng.Now(), f.ID, good)
		}},
	}
	for _, s := range sites {
		if a := testing.AllocsPerRun(20, s.fn); a != 0 {
			t.Errorf("%s: %v allocs per call with every log disarmed, want 0", s.name, a)
		}
	}
	if h.Reroutes <= 20 || h.TimeoutReroutes == 0 || mon.FailMarkEvents == 0 {
		t.Fatalf("sites not driven: %d reroutes, %d timeout placements, %d verdicts",
			h.Reroutes, h.TimeoutReroutes, mon.FailMarkEvents)
	}
}
