package hermes

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/checkpoint"
)

func ckptConfig(scheme Scheme, dir string) Config {
	cfg := chaosConfig(scheme, nil)
	cfg.Checks = true
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{5e6, 12e6}}
	return cfg
}

// TestCheckpointResumeByteIdentity is the tentpole acceptance check: for
// every host-steered scheme family, a run that writes checkpoints and a run
// restored from its latest checkpoint produce byte-identical marshaled
// Results — including the FCT report, goodput, telemetry counters and the
// Checkpoints manifest — with the invariant harness on.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	for _, s := range []Scheme{SchemeECMP, SchemePresto, SchemeHermes, SchemeREPS, SchemeRepFlow} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			dir := t.TempDir()
			ref := mustRun(t, ckptConfig(s, dir))
			if len(ref.Checkpoints) != 2 {
				t.Fatalf("Result.Checkpoints = %+v, want 2 entries", ref.Checkpoints)
			}
			for _, ci := range ref.Checkpoints {
				if _, err := os.Stat(ci.Path); err != nil {
					t.Fatalf("checkpoint file missing: %v", err)
				}
			}
			refJSON, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Restore(dir) // directory form: latest checkpoint wins
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			gotJSON, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(refJSON) != string(gotJSON) {
				t.Errorf("restored result diverges from reference run:\n ref %s\n got %s", refJSON, gotJSON)
			}
		})
	}
}

// countdownCtx is a deterministic interruption source: Err() stays nil for
// the first n polls and reports cancellation afterwards. The run loop polls
// once per scheduling slice, so the interrupt lands on a fixed slice
// boundary — no wall-clock races in the test.
type countdownCtx struct {
	context.Context
	calls, n int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestCheckpointInterruptAndResume kills a run mid-flight through its
// context, checks the typed InterruptedError (with its final interrupt
// checkpoint), and resumes from the directory: the final report must be
// byte-identical to the uninterrupted reference.
func TestCheckpointInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := ckptConfig(SchemeHermes, dir)
	ref := mustRun(t, cfg)
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Boundaries run 5 ms, 12 ms, 22 ms, ...; the 4th poll (22 ms) cancels.
	killed := cfg
	killed.ctx = &countdownCtx{Context: context.Background(), n: 3}
	_, err = Run(killed)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("interrupted run returned %v, want *InterruptedError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("InterruptedError does not unwrap to context.Canceled: %v", err)
	}
	if ie.Checkpoint.SimTimeNs != 22e6 {
		t.Errorf("interrupt checkpoint at t=%dns, want 22ms boundary", ie.Checkpoint.SimTimeNs)
	}
	if _, err := os.Stat(ie.Checkpoint.Path); err != nil {
		t.Fatalf("interrupt checkpoint file missing: %v", err)
	}

	// Latest(dir) picks the interrupt checkpoint (greatest sim time).
	res, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after interrupt: %v", err)
	}
	gotJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(gotJSON) {
		t.Errorf("kill-and-resume report diverges from uninterrupted reference:\n ref %s\n got %s", refJSON, gotJSON)
	}
}

// TestInterruptedRestoreWritesNothing interrupts a Restore before its
// replay verifies, once under an already-cancelled context and once at the
// 5 ms boundary of a replay to 12 ms. Neither may write a file: the error
// names the checkpoint being restored, which still resumes the run byte for
// byte. An interrupt at t=0 used to write a stale t=0 checkpoint beside the
// restored one.
func TestInterruptedRestoreWritesNothing(t *testing.T) {
	dir := t.TempDir()
	ref := mustRun(t, ckptConfig(SchemeECMP, dir))
	if len(ref.Checkpoints) != 2 {
		t.Fatalf("Result.Checkpoints = %+v, want 2 entries", ref.Checkpoints)
	}
	listing := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = checkpoint.SHA(b)
		}
		return files
	}
	before := listing()

	defer SetDefaultRunContext(defaultRunContext())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"already cancelled", cancelled},
		{"at the 5 ms boundary", &countdownCtx{Context: context.Background(), n: 1}},
	} {
		SetDefaultRunContext(tc.ctx)
		_, err := Restore(dir)
		var ie *InterruptedError
		if !errors.As(err, &ie) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Restore = %v, want an *InterruptedError wrapping context.Canceled", tc.name, err)
		}
		if ie.Checkpoint != ref.Checkpoints[1] {
			t.Errorf("%s: error names %+v, want the restored file %+v", tc.name, ie.Checkpoint, ref.Checkpoints[1])
		}
		if after := listing(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the interrupted restore changed the directory:\n before %v\n after  %v", tc.name, before, after)
		}
	}

	SetDefaultRunContext(nil)
	res, err := Restore(dir)
	if err != nil {
		t.Fatalf("Restore after the interrupted ones: %v", err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(gotJSON) {
		t.Errorf("restored result diverges from the reference run:\n ref %s\n got %s", refJSON, gotJSON)
	}
}

// TestForkAtFailureOnset checkpoints a healthy Hermes run 1 ms before the
// spine-blackhole onset, then forks the frozen instant into REPS and RepFlow
// with the failure timeline grafted on — same history, different scheme,
// different future — and requires both what-ifs to complete with the
// conservation harness clean and a scored Recovery block.
func TestForkAtFailureOnset(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Checks = true
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{19e6}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	sc, err := BuiltinScenario("spine-blackhole", ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{SchemeREPS, SchemeRepFlow} {
		res, err := Fork(dir, ForkOptions{Scheme: s, Scenario: sc})
		if err != nil {
			t.Fatalf("Fork into %s: %v", s, err)
		}
		if res.Scheme != s {
			t.Errorf("forked result scheme %q, want %q", res.Scheme, s)
		}
		if res.Recovery == nil || res.Recovery.Scenario != sc.Name {
			t.Errorf("fork into %s: Recovery = %+v, want scenario %q scored", s, res.Recovery, sc.Name)
		}
		if len(res.Checkpoints) != 0 {
			t.Errorf("fork wrote its own checkpoints: %+v", res.Checkpoints)
		}
	}
}

// TestForkRejectsABadGraftBeforeReplay: a grafted scenario is checked with
// the config, before the fork replays its prefix, so a fork that cannot run
// never starts a run on the status plane.
func TestForkRejectsABadGraftBeforeReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig(SchemeHermes, nil)
	cfg.Flows = 20
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{5e6}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st := NewStatus()
	SetDefaultStatus(st)
	defer SetDefaultStatus(nil)
	bad := &Scenario{Name: "bad", Events: []ScenarioEvent{
		{AtNs: 10e6, Name: "d", Failure: FailureSpec{Kind: FailureRandomDrop, Spine: 9}},
	}}
	if _, err := Fork(dir, ForkOptions{Scenario: bad}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Fork with a random drop on spine 9 of 2 = %v, want an out-of-range error", err)
	}
	if p := st.Progress(); p.RunsDone+p.RunsFailed+p.RunsActive != 0 {
		t.Errorf("the rejected fork reached the status plane: %d done, %d failed, %d active",
			p.RunsDone, p.RunsFailed, p.RunsActive)
	}
}

// TestPartialSweepOnCancellation pins the graceful-interrupt contract of the
// run pool: a pure cancellation hands back the completed results alongside
// the error instead of discarding them, and RunChaosMatrix aggregates what
// finished into a matrix marked Partial. (A pre-cancelled context is the
// deterministic extreme: zero runs finish, but the containers still arrive.)
func TestPartialSweepOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cfg := chaosConfig(SchemeECMP, nil)
	results, err := RunConfigs(ctx, seedConfigs(cfg, Seeds(11, 3)), ParallelOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool returned %v, want context.Canceled", err)
	}
	if results == nil || len(results) != 3 {
		t.Fatalf("cancelled pool returned results %v, want 3 (nil) slots", results)
	}

	sc, scErr := BuiltinScenario("spine-blackhole", cfg.Topology)
	if scErr != nil {
		t.Fatal(scErr)
	}
	m, err := RunChaosMatrix(ctx, ChaosMatrixConfig{
		Base: cfg, Schemes: []Scheme{SchemeECMP}, Scenarios: []*Scenario{sc}, Seeds: Seeds(11, 2),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled matrix returned %v, want context.Canceled", err)
	}
	if m == nil || !m.Partial {
		t.Fatalf("cancelled matrix = %+v, want a partial matrix alongside the error", m)
	}
	if c := m.Cell(SchemeECMP, sc.Name); c == nil || c.Runs != 0 {
		t.Errorf("fully-cancelled matrix cell = %+v, want present with 0 runs", c)
	}
}

// TestCheckpointRestoreRejections pins the loud-failure contract of the
// facade: schema-drifted configs are a ConfigMismatchError, tampered state
// that decodes cleanly still dies in replay verification as a
// StateMismatchError, and Fork's preconditions are enforced.
func TestCheckpointRestoreRejections(t *testing.T) {
	dir := t.TempDir()
	cfg := chaosConfig(SchemeECMP, nil)
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{2e6}}
	res := mustRun(t, cfg)
	if len(res.Checkpoints) != 1 {
		t.Fatalf("Result.Checkpoints = %+v, want 1 entry", res.Checkpoints)
	}
	path := res.Checkpoints[0].Path

	t.Run("config drift", func(t *testing.T) {
		f, err := checkpoint.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// An unknown field survives the file's own hash (WriteFile re-stamps
		// it) but vanishes in this build's round-trip, so the fingerprints
		// disagree — exactly what schema drift looks like.
		f.Config = json.RawMessage(strings.Replace(string(f.Config),
			`{"Topology"`, `{"Legacy":true,"Topology"`, 1))
		drifted := filepath.Join(t.TempDir(), "drifted.ckpt")
		if _, err := checkpoint.WriteFile(drifted, f); err != nil {
			t.Fatal(err)
		}
		var cm *checkpoint.ConfigMismatchError
		if _, err := Restore(drifted); !errors.As(err, &cm) {
			t.Fatalf("Restore(drifted config) = %v, want *ConfigMismatchError", err)
		}
	})

	t.Run("state tamper fails replay verification", func(t *testing.T) {
		f, err := checkpoint.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := strings.Replace(string(f.State), `"rng":{"draws":`, `"rng":{"draws":9`, 1)
		if tampered == string(f.State) {
			t.Fatal("tamper target not found in state section")
		}
		f.State = json.RawMessage(tampered)
		bad := filepath.Join(t.TempDir(), "tampered.ckpt")
		if _, err := checkpoint.WriteFile(bad, f); err != nil {
			t.Fatal(err)
		}
		var sm *checkpoint.StateMismatchError
		if _, err := Restore(bad); !errors.As(err, &sm) {
			t.Fatalf("Restore(tampered state) = %v, want *StateMismatchError", err)
		}
		if len(sm.Sections) == 0 || sm.Sections[0].Section != "rng" {
			t.Errorf("mismatch sections = %+v, want the rng section named", sm.Sections)
		}
	})

	t.Run("fork preconditions", func(t *testing.T) {
		if _, err := Fork(path, ForkOptions{}); err == nil {
			t.Error("Fork with no changes accepted")
		}
		if _, err := Fork(path, ForkOptions{Scheme: SchemeLetFlow}); err == nil {
			t.Error("fork into a switch-resident scheme accepted")
		}
		early := &Scenario{Name: "early", Events: []ScenarioEvent{
			{AtNs: 1e6, Name: "bh", Failure: FailureSpec{Kind: FailureBlackhole, Spine: 0}},
		}}
		if _, err := Fork(path, ForkOptions{Scenario: early}); err == nil {
			t.Error("fork scenario onsetting before the checkpoint instant accepted")
		}
	})

	t.Run("missing path", func(t *testing.T) {
		if _, err := Restore(filepath.Join(dir, "nope.ckpt")); err == nil {
			t.Error("Restore of a missing file succeeded")
		}
	})
}

// TestFailedRestoreKeepsCheckpoints: a restore whose replay diverges leaves
// every checkpoint file as it found it. The replay passes the run's
// scheduled instants on its way to the one it restores, and a file already
// at one of them is compared with the replay's state, not overwritten. Each
// case tampers one file's rng section in place, at its own path, and
// restores the later file: the restore must fail at the tampered instant
// with the rng section named, and no file's bytes may change. Writing each
// due file before verifying used to replace the tampered file with the
// replay's own state, so a second resume from it would succeed.
func TestFailedRestoreKeepsCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper int // index into Result.Checkpoints
	}{{"restored file", 1}, {"earlier file", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(SchemeECMP, nil)
			cfg.Checkpoint = &CheckpointConfig{Dir: t.TempDir(), AtNs: []int64{1e6, 2e6}}
			res := mustRun(t, cfg)
			if len(res.Checkpoints) != 2 {
				t.Fatalf("Result.Checkpoints = %+v, want 2 entries", res.Checkpoints)
			}
			bad := res.Checkpoints[tc.tamper]
			f, err := checkpoint.ReadFile(bad.Path)
			if err != nil {
				t.Fatal(err)
			}
			tampered := strings.Replace(string(f.State), `"rng":{"draws":`, `"rng":{"draws":9`, 1)
			if tampered == string(f.State) {
				t.Fatal("tamper target not found in state section")
			}
			f.State = json.RawMessage(tampered)
			if _, err := checkpoint.WriteFile(bad.Path, f); err != nil {
				t.Fatal(err)
			}
			before := map[string][]byte{}
			for _, ci := range res.Checkpoints {
				if before[ci.Path], err = os.ReadFile(ci.Path); err != nil {
					t.Fatal(err)
				}
			}
			_, err = Restore(res.Checkpoints[1].Path)
			var sm *checkpoint.StateMismatchError
			if !errors.As(err, &sm) {
				t.Fatalf("Restore = %v, want *StateMismatchError", err)
			}
			if sm.SimTimeNs != bad.SimTimeNs || len(sm.Sections) != 1 || sm.Sections[0].Section != "rng" {
				t.Errorf("mismatch at t=%dns in %+v, want t=%dns in the rng section", sm.SimTimeNs, sm.Sections, bad.SimTimeNs)
			}
			for path, want := range before {
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("failed resume rewrote %s (%d -> %d bytes)", path, len(want), len(got))
				}
			}
		})
	}
}

// TestForkRateSamplesStartAtFork: every rate sample of a fork's flight ring
// covers one interval. The ring records from t=0, as any run's does, and a
// rate probe registered after the ring starts, as a forked-in scheme's
// are, takes its baseline when it registers. When a fork's ring started at
// the fork instant and its rate probes took no baseline, the first goodput
// sample here read 1201.6 Gbps on a 12 x 1 Gbps fabric and inflated the
// recovery baseline.
func TestForkRateSamplesStartAtFork(t *testing.T) {
	dir := t.TempDir()
	topo := TestbedTopology()
	cfg := Config{
		Topology: topo, Scheme: SchemeHermes, Workload: "web-search",
		Load: 0.5, Flows: 200, Seed: 1,
		Checkpoint: &CheckpointConfig{Dir: dir, AtNs: []int64{100e6}},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	sc, err := BuiltinScenario("spine-blackhole", topo)
	if err != nil {
		t.Fatal(err)
	}
	sc.Events[0].AtNs = 105e6
	res, err := Fork(dir, ForkOptions{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	// Goodput lands on 12 hosts' 1 Gbps access links.
	const maxGbps = 12
	goodput := res.TimeSeries.Series("net.goodput_gbps")
	if len(goodput) == 0 {
		t.Fatal("forked run recorded no goodput series")
	}
	for i, g := range goodput {
		if g > maxGbps {
			t.Fatalf("goodput sample %d = %.1f Gbps exceeds the %d Gbps fabric", i, g, maxGbps)
		}
	}
	if res.Recovery == nil || len(res.Recovery.Events) == 0 {
		t.Fatalf("Recovery = %+v, want the grafted scenario scored", res.Recovery)
	}
	for _, e := range res.Recovery.Events {
		if e.BaselineGbps > maxGbps {
			t.Errorf("%s: baseline %.2f Gbps exceeds the %d Gbps fabric", e.Label, e.BaselineGbps, maxGbps)
		}
	}
}
