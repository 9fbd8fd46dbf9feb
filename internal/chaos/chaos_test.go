package chaos

import (
	"math"
	"strings"
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

func testEnv(t *testing.T) Env {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 4, Spines: 4, HostsPerLeaf: 4, CablesPerLink: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Env{Net: nw, Rng: sim.NewRNG(2)}
}

// snapshotRates captures every cable rate of the fabric.
func snapshotRates(nw *net.Network) map[[3]int]int64 {
	out := map[[3]int]int64{}
	for l := 0; l < nw.Cfg.Leaves; l++ {
		for s := 0; s < nw.Cfg.Spines; s++ {
			for c := 0; c < nw.Cables(); c++ {
				out[[3]int{l, s, c}] = nw.CableRate(l, s, c)
			}
		}
	}
	return out
}

func dropFnCount(nw *net.Network) int {
	n := 0
	for _, sw := range nw.Leaves {
		n += sw.DropFnCount()
	}
	for _, sw := range nw.Spines {
		n += sw.DropFnCount()
	}
	return n
}

// TestInjectorsRestoreExactState is the clear/restore contract: after
// Apply+Revert every cable rate and every switch's drop-hook count must
// equal the pre-injection state, for every injector kind.
func TestInjectorsRestoreExactState(t *testing.T) {
	injectors := []Injector{
		&Blackhole{Spine: 1, SrcLeaf: 0, DstLeaf: 3},
		&SpineBlackhole{Spine: 2},
		&SpineBlackhole{Spine: -1},
		&RandomDrop{Spine: -1, Rate: 0.02},
		&Link{Leaf: 1, Spine: 2, Bps: 0},
		&Link{Leaf: 0, Spine: 0, Bps: 1e6},
		&CutCable{Leaf: 1, Spine: 1, Cable: 1},
		&DegradeFraction{Fraction: 0.25, Bps: 1e8},
		&DegradeSpine{Spine: 3, Bps: 1e8},
		&SwitchDown{Leaf: false, Index: 2},
		&SwitchDown{Leaf: true, Index: 1},
	}
	for _, inj := range injectors {
		env := testEnv(t)
		// Pre-degrade one unrelated cable so "restore" cannot be confused
		// with "reset to config default".
		env.Net.SetCable(3, 3, 1, 5e8)
		before := snapshotRates(env.Net)
		hooks := dropFnCount(env.Net)
		inj.Apply(env)
		inj.Revert(env)
		after := snapshotRates(env.Net)
		for k, v := range before {
			if after[k] != v {
				t.Errorf("%s: cable %v = %d after revert, want %d", inj.Kind(), k, after[k], v)
			}
		}
		if got := dropFnCount(env.Net); got != hooks {
			t.Errorf("%s: %d drop hooks after revert, want %d", inj.Kind(), got, hooks)
		}
	}
}

// TestInjectorApplyRevertCycles exercises re-activation (flap cycles reuse
// one injector instance): state must round-trip every cycle.
func TestInjectorApplyRevertCycles(t *testing.T) {
	env := testEnv(t)
	inj := &Link{Leaf: 0, Spine: 1, Bps: 1e6}
	before := snapshotRates(env.Net)
	for cycle := 0; cycle < 3; cycle++ {
		inj.Apply(env)
		if got := env.Net.FabricLinkRate(0, 1); got != 2e6 {
			t.Fatalf("cycle %d: degraded link rate %d, want 2e6 (2 cables x 1e6)", cycle, got)
		}
		inj.Revert(env)
		for k, v := range before {
			if got := env.Net.CableRate(k[0], k[1], k[2]); got != v {
				t.Fatalf("cycle %d: cable %v = %d, want %d", cycle, k, got, v)
			}
		}
	}
}

// TestRunnerTimeline drives a two-failure scenario with overlap: a blackhole
// from 1ms to 5ms and a random drop from 2ms to 6ms, both on spine 0 — the
// co-residency the drop-hook chain exists for.
func TestRunnerTimeline(t *testing.T) {
	env := testEnv(t)
	sc := &Scenario{Name: "two-failures", Events: []Event{
		At(1*sim.Millisecond, "bh", &Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3}),
		At(2*sim.Millisecond, "rd", &RandomDrop{Spine: 0, Rate: 0.5}),
		ClearAt(5*sim.Millisecond, "bh"),
		ClearAt(6*sim.Millisecond, "rd"),
	}}
	r := NewRunner(env, sc)
	eng := env.Net.Eng
	r.Install(eng)
	eng.Run(3 * sim.Millisecond)
	if got := env.Net.Spines[0].DropFnCount(); got != 2 {
		t.Fatalf("spine0 has %d drop hooks during overlap, want 2", got)
	}
	if r.ActiveCount() != 2 {
		t.Fatalf("ActiveCount = %d during overlap, want 2", r.ActiveCount())
	}
	eng.Run(10 * sim.Millisecond)
	if got := env.Net.Spines[0].DropFnCount(); got != 0 {
		t.Fatalf("spine0 has %d drop hooks after clears, want 0", got)
	}
	if errs := r.Finish(eng.Now()); len(errs) != 0 {
		t.Fatalf("Finish errors: %v", errs)
	}
	if len(r.Log) != 2 {
		t.Fatalf("log has %d activations, want 2", len(r.Log))
	}
	bh := r.Log[0]
	if bh.Name != "bh" || bh.OnsetNs != 1e6 || bh.ClearNs != 5e6 {
		t.Fatalf("blackhole activation = %+v", *bh)
	}
	if len(bh.Scope.Spines) != 1 || bh.Scope.Spines[0] != 0 {
		t.Fatalf("blackhole scope = %+v", bh.Scope)
	}
}

// TestRunnerOnEvent: the observer hook sees every activation and clear, in
// timeline order, with the cleared flag distinguishing the two.
func TestRunnerOnEvent(t *testing.T) {
	env := testEnv(t)
	sc := &Scenario{Name: "observed", Events: []Event{
		At(1*sim.Millisecond, "bh", &Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3}),
		ClearAt(4*sim.Millisecond, "bh"),
	}}
	r := NewRunner(env, sc)
	type seen struct {
		name    string
		cleared bool
		at      int64
	}
	var events []seen
	r.OnEvent = func(a *Applied, cleared bool) {
		at := a.OnsetNs
		if cleared {
			at = a.ClearNs
		}
		events = append(events, seen{a.Name, cleared, at})
	}
	eng := env.Net.Eng
	r.Install(eng)
	eng.Run(10 * sim.Millisecond)
	want := []seen{{"bh", false, 1e6}, {"bh", true, 4e6}}
	if len(events) != len(want) {
		t.Fatalf("observed %+v, want %+v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestRunnerFlap checks the repeating-event machinery that replaced
// failure.Flap: down Duration out of each Every, Count cycles, exact rate
// restoration between cycles.
func TestRunnerFlap(t *testing.T) {
	env := testEnv(t)
	sc := &Scenario{Name: "flap", Events: []Event{
		{At: 6 * sim.Millisecond, Name: "flap",
			Inject:   &Link{Leaf: 0, Spine: 1, Bps: 0},
			Duration: 4 * sim.Millisecond, Every: 10 * sim.Millisecond, Count: 3},
	}}
	r := NewRunner(env, sc)
	eng := env.Net.Eng
	r.Install(eng)
	// First dip spans 6..10ms.
	eng.Run(7 * sim.Millisecond)
	if env.Net.FabricLinkRate(0, 1) != 0 {
		t.Fatal("link not cut during first dip")
	}
	eng.Run(11 * sim.Millisecond)
	if env.Net.FabricLinkRate(0, 1) != 2e9 {
		t.Fatal("link not restored after first dip")
	}
	// After 3 cycles it must stay up forever.
	eng.Run(sim.Second)
	if env.Net.FabricLinkRate(0, 1) != 2e9 {
		t.Fatal("flapping did not stop after Count cycles")
	}
	if errs := r.Finish(eng.Now()); len(errs) != 0 {
		t.Fatalf("Finish errors: %v", errs)
	}
	if len(r.Log) != 3 {
		t.Fatalf("%d activations, want 3", len(r.Log))
	}
	for i, a := range r.Log {
		wantOn := int64(6e6 + float64(i)*10e6)
		if a.Cycle != i || a.OnsetNs != wantOn || a.ClearNs != wantOn+4e6 {
			t.Fatalf("cycle %d activation = %+v", i, *a)
		}
	}
}

// TestRunnerDurationPastEndOfClock is the regression test for an onset plus
// Duration past math.MaxInt64: the clear time wrapped negative, so a "never
// clear" injection cleared at its onset. It must stay active.
func TestRunnerDurationPastEndOfClock(t *testing.T) {
	env := testEnv(t)
	sc := &Scenario{Name: "forever", Events: []Event{
		{At: 1 * sim.Millisecond, Name: "bh",
			Inject:   &Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3},
			Duration: math.MaxInt64},
	}}
	r := NewRunner(env, sc)
	eng := env.Net.Eng
	r.Install(eng)
	eng.Run(10 * sim.Millisecond)
	if len(r.Log) != 1 || r.Log[0].ClearNs != -1 || r.ActiveCount() != 1 {
		t.Fatalf("log = %+v, active = %d; want one activation still active (ClearNs -1)", r.Log, r.ActiveCount())
	}
	if errs := r.Finish(eng.Now()); len(errs) != 0 {
		t.Fatalf("Finish errors: %v", errs)
	}
}

// TestRunnerUnfiredEventErrors: one-shot events past run end must surface
// from Finish.
func TestRunnerUnfiredEventErrors(t *testing.T) {
	env := testEnv(t)
	sc := &Scenario{Name: "late", Events: []Event{
		At(1*sim.Millisecond, "bh", &Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3}),
		ClearAt(2*sim.Second, "bh"), // far past where the run will stop
	}}
	r := NewRunner(env, sc)
	eng := env.Net.Eng
	r.Install(eng)
	eng.Run(10 * sim.Millisecond)
	errs := r.Finish(eng.Now())
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "never fired") {
		t.Fatalf("Finish = %v, want one never-fired error", errs)
	}
}

func TestScenarioValidation(t *testing.T) {
	bh := func() Injector { return &Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3} }
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"negative onset", Scenario{Events: []Event{At(-1, "a", bh())}}, "negative onset"},
		{"empty event", Scenario{Events: []Event{{At: 1}}}, "neither"},
		{"clear unknown", Scenario{Events: []Event{ClearAt(5, "ghost")}}, "matches no inject"},
		{"clear before onset", Scenario{Events: []Event{
			At(10, "a", bh()), ClearAt(5, "a")}}, "before its onset"},
		{"duplicate name", Scenario{Events: []Event{
			At(1, "a", bh()), At(2, "a", &RandomDrop{Spine: 1, Rate: 0.1})}}, "already used"},
		{"repeat without duration", Scenario{Events: []Event{
			{At: 1, Name: "f", Inject: bh(), Every: 10}}}, "needs Duration"},
		{"overlapping cycles", Scenario{Events: []Event{
			{At: 1, Name: "f", Inject: bh(), Every: 10, Duration: 10}}}, "overlap"},
		{"count without every", Scenario{Events: []Event{
			{At: 1, Name: "f", Inject: bh(), Count: 2}}}, "without Every"},
		{"clear of a self-clearing event", Scenario{Events: []Event{
			{At: 1, Name: "a", Inject: bh(), Duration: 5}, ClearAt(10, "a")}}, "clears itself"},
		{"second clear", Scenario{Events: []Event{
			At(1, "a", bh()), ClearAt(5, "a"), ClearAt(10, "a")}}, "already cleared by event 1"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	ok := Scenario{Name: "ok", Events: []Event{
		At(1*sim.Millisecond, "a", bh()),
		ClearAt(5*sim.Millisecond, "a"),
		{At: 2 * sim.Millisecond, Name: "f", Inject: &Link{Leaf: 0, Spine: 0, Bps: 0},
			Every: 10 * sim.Millisecond, Duration: 3 * sim.Millisecond, Count: 2},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}
