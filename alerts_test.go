package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestAlertsOffByDefault pins the watchdog's zero-cost contract: with
// Config.Alerts nil no evaluator exists, Result.Alerts stays nil, and the
// marshaled result and config carry no alert keys at all — golden report
// bytes are untouched.
func TestAlertsOffByDefault(t *testing.T) {
	res := mustRun(t, chaosConfig(SchemeHermes, nil))
	if res.Alerts != nil {
		t.Fatalf("Result.Alerts = %+v without Config.Alerts", res.Alerts)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"Alerts"`) {
		t.Error("unarmed Result JSON mentions Alerts; omitempty contract broken")
	}
	cb, err := json.Marshal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cb), `"Alerts"`) {
		t.Error("zero Config JSON mentions Alerts; omitempty contract broken")
	}
}

// TestAlertsRequireRules: arming the watchdog with nothing to watch is a
// config error, not a silent no-op.
func TestAlertsRequireRules(t *testing.T) {
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Alerts = &AlertsConfig{}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no rules") {
		t.Fatalf("err = %v, want a no-rules-armed error", err)
	}
}

// TestAlertsSpineBlackholeAcceptance is the ISSUE acceptance gate: under the
// builtin spine-blackhole scenario the goodput-dip alert fires and resolves,
// and the gray-path-dwell fire time is consistent with the recovery plane's
// Recovery.TimeToDetect within one sample interval (a firing dwell episode
// covers the first sample boundary at/after the detection instant).
func TestAlertsSpineBlackholeAcceptance(t *testing.T) {
	scenario, err := BuiltinScenario("spine-blackhole", chaosTopo())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, scenario)
	cfg.Alerts = &AlertsConfig{Builtin: true}
	res := mustRun(t, cfg)
	if res.Alerts == nil || res.Alerts.Fired == 0 {
		t.Fatalf("watchdog armed but nothing fired: %+v", res.Alerts)
	}
	if res.Alerts.IntervalNs <= 0 {
		t.Fatalf("IntervalNs = %d", res.Alerts.IntervalNs)
	}

	dipFired, dipResolved := false, false
	for _, a := range res.Alerts.Alerts {
		if a.Rule != AlertGoodputDip || a.FiringNs == 0 {
			continue
		}
		dipFired = true
		if a.State == "resolved" {
			dipResolved = true
		}
	}
	if !dipFired {
		t.Error("goodput-dip never fired under a spine blackhole")
	}
	if !dipResolved {
		t.Error("goodput-dip never resolved after hermes rerouted")
	}

	cross := crossCheckAlertDetect(res)
	if cross[1] == 0 {
		t.Fatal("recovery plane detected nothing; acceptance scenario too weak")
	}
	if cross[0] != cross[1] {
		t.Errorf("alert/recovery detection disagree: %d/%d activations covered by a firing gray-path-dwell within one sample interval",
			cross[0], cross[1])
	}
}

// TestAlertsUserRules: a rule file without the builtin pack arms exactly the
// user's rules, and Result.Alerts carries them.
func TestAlertsUserRules(t *testing.T) {
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Alerts = &AlertsConfig{Rules: []AlertRule{
		{Name: "flight-recorder-dead", Series: "no.such.series", Op: "absent", Severity: "critical"},
	}}
	res := mustRun(t, cfg)
	if res.Alerts == nil || len(res.Alerts.Rules) != 1 {
		t.Fatalf("Alerts = %+v, want exactly the user rule", res.Alerts)
	}
	if res.Alerts.Fired == 0 || res.Alerts.Alerts[0].Rule != "flight-recorder-dead" {
		t.Fatalf("absence rule never fired: %+v", res.Alerts)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"Alerts"`) {
		t.Error("armed Result JSON lacks the Alerts report")
	}
}

// TestAlertsDeterministicParallel: alert reports are a pure function of
// (config, seed) — byte-identical between sequential Run and RunSeeds.
func TestAlertsDeterministicParallel(t *testing.T) {
	scenario, err := BuiltinScenario("spine-blackhole", chaosTopo())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(SchemeHermes, scenario)
	cfg.Alerts = &AlertsConfig{Builtin: true}
	seeds := Seeds(11, 2)

	seq := make([][]byte, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		res := mustRun(t, c)
		b, err := json.Marshal(res.Alerts)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = b
	}
	par, _, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range par {
		b, err := json.Marshal(res.Alerts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq[i], b) {
			t.Errorf("seed %d: alert report differs between sequential and parallel", seeds[i])
		}
	}
}

// TestChaosMatrixAlerts: arming the matrix populates the per-cell alert
// columns and the detect cross-check, and the slot-ordered alert log is
// byte-identical regardless of worker count.
func TestChaosMatrixAlerts(t *testing.T) {
	base := chaosConfig(SchemeHermes, nil)
	spineBH, err := BuiltinScenario("spine-blackhole", base.Topology)
	if err != nil {
		t.Fatal(err)
	}
	mc := ChaosMatrixConfig{
		Base:      base,
		Schemes:   []Scheme{SchemeHermes, SchemeECMP},
		Scenarios: []*Scenario{spineBH},
		Seeds:     Seeds(11, 2),
		Alerts:    &AlertsConfig{Builtin: true},
	}
	var logA bytes.Buffer
	mc.AlertLog = &logA
	m, err := RunChaosMatrix(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}
	if !m.AlertsArmed {
		t.Fatal("AlertsArmed not set")
	}
	hermes := m.Cell(SchemeHermes, "spine-blackhole")
	if hermes.AlertsFired == 0 {
		t.Errorf("hermes cell has no alerts: %+v", hermes)
	}
	if hermes.AlertDetectTotal == 0 || hermes.AlertDetectAgree != hermes.AlertDetectTotal {
		t.Errorf("detect cross-check %d/%d, want full agreement",
			hermes.AlertDetectAgree, hermes.AlertDetectTotal)
	}
	if ecmp := m.Cell(SchemeECMP, "spine-blackhole"); ecmp.AlertDetectTotal != 0 {
		t.Errorf("ecmp has no detector but AlertDetectTotal = %d", ecmp.AlertDetectTotal)
	}

	// The log parses, covers every slot (clean baselines included), and the
	// labels follow slot order.
	runs, err := ReadAlertLog(bytes.NewReader(logA.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(mc.Schemes) * (len(mc.Scenarios) + 1) * len(mc.Seeds)
	if len(runs) != wantRuns {
		t.Fatalf("alert log has %d runs, want %d", len(runs), wantRuns)
	}
	if runs[0].Label != "hermes/load 0.5/seed 11" || runs[2].Label != "hermes/spine-blackhole/load 0.5/seed 11" {
		t.Errorf("log labels out of slot order: %q, %q", runs[0].Label, runs[2].Label)
	}

	// Worker count must leak into neither the matrix nor the log bytes.
	mc2 := mc
	var logB bytes.Buffer
	mc2.AlertLog = &logB
	mc2.Options = ParallelOptions{Workers: 1}
	m2, err := RunChaosMatrix(context.Background(), mc2)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(m)
	jb, _ := json.Marshal(m2)
	if !bytes.Equal(ja, jb) {
		t.Error("matrix differs by worker count with alerts armed")
	}
	if !bytes.Equal(logA.Bytes(), logB.Bytes()) {
		t.Error("alert log differs by worker count")
	}

	// The armed scorecard gains the alert columns.
	var buf bytes.Buffer
	if err := m.RenderText(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alerts(f/r)", "detect-agree"} {
		if !strings.Contains(out, want) {
			t.Errorf("armed scorecard missing %q:\n%s", want, out)
		}
	}
}

// TestAlertLogRoundTripRoot exercises the root-package log wrappers.
func TestAlertLogRoundTripRoot(t *testing.T) {
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Alerts = &AlertsConfig{Rules: []AlertRule{
		{Name: "dead", Series: "no.such.series", Op: "absent"},
	}}
	res := mustRun(t, cfg)
	var buf bytes.Buffer
	if err := WriteAlertLog(&buf, "round/trip", res.Alerts); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadAlertLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Label != "round/trip" || runs[0].Report.Fired != res.Alerts.Fired {
		t.Fatalf("round trip = %+v", runs)
	}
	var out bytes.Buffer
	if err := RenderAlertText(&out, &runs[0].Report, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dead on no.such.series") {
		t.Errorf("render missing the episode:\n%s", out.String())
	}
}
