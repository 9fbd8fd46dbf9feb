package hermes

import (
	"bytes"
	"encoding/json"
	"testing"
)

// observedArtifacts writes every artifact of a run with every sink armed,
// keyed by name: the marshaled Result, the report, the flight recording in
// both formats, the alert log, the trace in both formats and the audit log.
// The flight, trace and audit data are not part of the marshaled Result.
func observedArtifacts(t *testing.T, cfg Config, res *Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	add := func(name string, write func(*bytes.Buffer) error) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	add("result", func(b *bytes.Buffer) error { return json.NewEncoder(b).Encode(res) })
	add("report", func(b *bytes.Buffer) error {
		rep, err := BuildReport(cfg, res)
		if err != nil {
			return err
		}
		return rep.WriteJSON(b)
	})
	add("flight.jsonl", func(b *bytes.Buffer) error { return res.TimeSeries.WriteJSONL(b) })
	add("flight.csv", func(b *bytes.Buffer) error { return res.TimeSeries.WriteCSV(b) })
	add("alerts", func(b *bytes.Buffer) error { return WriteAlertLog(b, "resume", res.Alerts) })
	add("trace.jsonl", func(b *bytes.Buffer) error { return res.Trace.WriteJSONL(b) })
	add("perfetto", func(b *bytes.Buffer) error { return res.Trace.WritePerfetto(b) })
	add("audit.jsonl", func(b *bytes.Buffer) error { return res.Telemetry.Audit.WriteJSONL(b) })
	return out
}

// TestResumeWithEverySinkArmed: a run with the report sweep, the flight
// ring, builtin alerts, the trace, the visibility sampler and the invariant
// harness armed, checkpointed at 15 ms, resumes byte for byte. Every
// artifact must match, not only the marshaled Result, which leaves out the
// flight, trace and audit data.
func TestResumeWithEverySinkArmed(t *testing.T) {
	for _, name := range []string{"spine-blackhole", "flap"} {
		sc, err := BuiltinScenario(name, ChaosTopology())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scheme{SchemeHermes, SchemeECMP, SchemeREPS} {
			t.Run(name+"/"+string(s), func(t *testing.T) {
				cfg := chaosConfig(s, sc)
				cfg.Telemetry = true
				cfg.TimeSeries = true
				cfg.Alerts = &AlertsConfig{Builtin: true}
				cfg.Trace = true
				cfg.MeasureVisibility = true
				cfg.Checks = true
				cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: []int64{15e6}}
				ref := mustRun(t, cfg)
				if len(ref.Checkpoints) != 1 {
					t.Fatalf("Result.Checkpoints = %+v, want 1 entry", ref.Checkpoints)
				}
				want := observedArtifacts(t, cfg, ref)
				res, err := Restore(ref.Checkpoints[0].Path)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				got := observedArtifacts(t, cfg, res)
				for k, w := range want {
					if len(w) == 0 {
						t.Errorf("%s: reference run wrote nothing", k)
					}
					if !bytes.Equal(got[k], w) {
						t.Errorf("%s: restored run differs (%d bytes, reference %d)", k, len(got[k]), len(w))
					}
				}
			})
		}
	}
}
