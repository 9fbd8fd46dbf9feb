package hermes

import (
	"fmt"
	"math"
	"sort"

	"github.com/hermes-repro/hermes/internal/chaos"
	"github.com/hermes-repro/hermes/internal/sim"
)

// ScenarioEvent is one timeline entry of a Scenario: a failure onset (Kind
// set on Failure) or a clear of an earlier one (Clear set). All times are
// virtual nanoseconds. The struct is plain JSON so scenarios can live in
// -config files and CLI flags.
type ScenarioEvent struct {
	// AtNs is the onset time.
	AtNs int64 `json:"at_ns"`
	// Name identifies the injection for Clear references and the recovery
	// report (auto-filled when empty).
	Name string `json:"name,omitempty"`
	// Clear names the inject event to revert; exclusive with Failure.
	Clear string `json:"clear,omitempty"`
	// DurationNs auto-clears the injection this long after each onset.
	DurationNs int64 `json:"duration_ns,omitempty"`
	// EveryNs repeats the injection with this period (flap); requires
	// DurationNs < EveryNs.
	EveryNs int64 `json:"every_ns,omitempty"`
	// Count bounds repetitions when EveryNs is set (0 = forever).
	Count int `json:"count,omitempty"`
	// Failure is the injection, reusing the static FailureSpec vocabulary
	// (all kinds except "flap", which IS the event machinery: use
	// EveryNs+DurationNs on a degrade-link or cut-link event).
	Failure FailureSpec `json:"failure,omitempty"`
}

// Scenario is a declarative failure timeline, deterministic per run seed:
// several failures may be active at once, and each may onset, clear, or
// repeat mid-run. Set it on Config.Scenario; the run then computes
// Result.Recovery from the flight recorder.
//
// Overlapping activations that re-rate the SAME link (two cut/degrade
// events on one leaf-spine pair) restore snapshots taken at their own
// onset, so clear them in reverse onset order or keep their scopes
// disjoint — hook-based failures (blackhole, random-drop) compose freely.
type Scenario struct {
	Name   string          `json:"name,omitempty"`
	Events []ScenarioEvent `json:"events"`
}

// toChaos lowers the JSON-able scenario to chaos injectors. Injector
// instances are freshly built per call, so one Scenario value is safe to
// share across RunParallel seeds.
func (s *Scenario) toChaos(topo Topology) (*chaos.Scenario, error) {
	out := &chaos.Scenario{Name: s.Name}
	for i, ev := range s.Events {
		ce := chaos.Event{
			At: sim.Time(ev.AtNs), Name: ev.Name, Clear: ev.Clear,
			Duration: sim.Time(ev.DurationNs), Every: sim.Time(ev.EveryNs),
			Count: ev.Count,
		}
		if ev.Clear == "" {
			if err := validateFailureSpec(ev.Failure, topo); err != nil {
				return nil, fmt.Errorf("hermes: scenario %q event %d: %w", s.Name, i, err)
			}
			inj, err := injectorFor(ev.Failure, topo)
			if err != nil {
				return nil, fmt.Errorf("hermes: scenario %q event %d: %w", s.Name, i, err)
			}
			ce.Inject = inj
		}
		out.Events = append(out.Events, ce)
	}
	return out, nil
}

// injectorFor builds the chaos injector for one failure spec, static or a
// scenario event's, applying the facade's defaulting rules (zero rate ->
// 2%, same racks -> first/last, zero degraded rate -> a fifth of the cable
// rate...). Each kind's defaults live only here.
func injectorFor(spec FailureSpec, topo Topology) (chaos.Injector, error) {
	switch spec.Kind {
	case FailureRandomDrop:
		rate := spec.DropRate
		if rate == 0 {
			rate = 0.02
		}
		return &chaos.RandomDrop{Spine: spec.Spine, Rate: rate}, nil
	case FailureBlackhole:
		src, dst := spec.SrcLeaf, spec.DstLeaf
		if src == dst {
			src, dst = 0, topo.Leaves-1
		}
		return &chaos.Blackhole{Spine: spec.Spine, SrcLeaf: src, DstLeaf: dst}, nil
	case FailureSpineBlackhole:
		return &chaos.SpineBlackhole{Spine: spec.Spine}, nil
	case FailureDegrade:
		frac, bps := spec.Fraction, spec.DegradedBps
		if frac == 0 {
			frac = 0.2
		}
		if bps == 0 {
			bps = topo.FabricRateBps / 5
		}
		return &chaos.DegradeFraction{Fraction: frac, Bps: bps}, nil
	case FailureCutLink:
		return &chaos.Link{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Bps: 0}, nil
	case FailureCutCable:
		cable := spec.CutCable
		if cable < 0 {
			cable = 0
		}
		return &chaos.CutCable{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Cable: cable}, nil
	case FailureDegradeLink:
		bps := spec.DegradedBps
		if bps == 0 {
			bps = topo.FabricRateBps / 2
		}
		return &chaos.Link{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Bps: bps}, nil
	case FailureDegradeSpine:
		bps := spec.DegradedBps
		if bps == 0 {
			bps = topo.FabricRateBps / 5
		}
		return &chaos.DegradeSpine{Spine: spec.Spine, Bps: bps}, nil
	case FailureSpineDown:
		return &chaos.SwitchDown{Leaf: false, Index: spec.Spine}, nil
	case FailureLeafDown:
		return &chaos.SwitchDown{Leaf: true, Index: spec.CutLeaf}, nil
	case FailureFlap:
		return nil, fmt.Errorf("kind %q is not a scenario injection: flapping IS the event machinery, use EveryNs+DurationNs on a degrade-link or cut-link event", spec.Kind)
	}
	return nil, fmt.Errorf("unknown failure kind %q", spec.Kind)
}

// validateFailureSpec hardens the facade against malformed failure
// parameters: out-of-range indices, negative or non-finite rates and
// fractions, and degraded rates above the fabric's are errors, never panics
// or silent clamps. Zero values keep their documented defaulting (rate 0 -> 2%,
// racks 0/0 -> first/last, spine -1 -> random).
func validateFailureSpec(spec FailureSpec, topo Topology) error {
	cables := topo.CablesPerLink
	if cables <= 0 {
		cables = 1
	}
	spineRange := func(spine int, what string) error {
		if spine < -1 || spine >= topo.Spines {
			return fmt.Errorf("%s: spine %d out of range [0, %d) (-1 = random)",
				what, spine, topo.Spines)
		}
		return nil
	}
	leafRange := func(leaf int, what, field string) error {
		if leaf < 0 || leaf >= topo.Leaves {
			return fmt.Errorf("%s: %s %d out of range [0, %d)", what, field, leaf, topo.Leaves)
		}
		return nil
	}
	cutLink := func(what string) error {
		if err := leafRange(spec.CutLeaf, what, "CutLeaf"); err != nil {
			return err
		}
		if spec.CutSpine < 0 || spec.CutSpine >= topo.Spines {
			return fmt.Errorf("%s: CutSpine %d out of range [0, %d)", what, spec.CutSpine, topo.Spines)
		}
		return nil
	}
	if spec.DegradedBps < 0 {
		return fmt.Errorf("%s: negative DegradedBps %d", spec.Kind, spec.DegradedBps)
	}
	// JSON has no NaN or infinity, so a config holding one could be neither
	// checkpointed nor reported, even where its kind ignores the field.
	if math.IsNaN(spec.DropRate) || math.IsInf(spec.DropRate, 0) ||
		math.IsNaN(spec.Fraction) || math.IsInf(spec.Fraction, 0) {
		return fmt.Errorf("%s: DropRate %g and Fraction %g must be finite", spec.Kind, spec.DropRate, spec.Fraction)
	}
	switch spec.Kind {
	case FailureDegrade, FailureDegradeLink, FailureDegradeSpine, FailureFlap:
		if spec.DegradedBps > topo.FabricRateBps {
			return fmt.Errorf("%s: DegradedBps %d above the fabric's %d per cable: a degradation cannot add capacity",
				spec.Kind, spec.DegradedBps, topo.FabricRateBps)
		}
	}

	switch spec.Kind {
	case FailureNone:
		return nil
	case FailureRandomDrop:
		if !(spec.DropRate >= 0 && spec.DropRate <= 1) { // NaN too
			return fmt.Errorf("random-drop: DropRate %g out of range [0, 1]", spec.DropRate)
		}
		return spineRange(spec.Spine, "random-drop")
	case FailureBlackhole:
		if err := spineRange(spec.Spine, "blackhole"); err != nil {
			return err
		}
		if err := leafRange(spec.SrcLeaf, "blackhole", "SrcLeaf"); err != nil {
			return err
		}
		return leafRange(spec.DstLeaf, "blackhole", "DstLeaf")
	case FailureDegrade:
		if !(spec.Fraction >= 0 && spec.Fraction <= 1) { // NaN too
			return fmt.Errorf("degrade: Fraction %g out of range [0, 1]", spec.Fraction)
		}
		return nil
	case FailureCutLink, FailureDegradeLink:
		return cutLink(string(spec.Kind))
	case FailureCutCable:
		if err := cutLink("cut-cable"); err != nil {
			return err
		}
		if spec.CutCable < -1 || spec.CutCable >= cables {
			return fmt.Errorf("cut-cable: CutCable %d out of range [0, %d)", spec.CutCable, cables)
		}
		return nil
	case FailureFlap:
		if err := cutLink("flap"); err != nil {
			return err
		}
		if spec.FlapPeriodNs < 0 || spec.FlapDownNs < 0 {
			return fmt.Errorf("flap: negative FlapPeriodNs/FlapDownNs")
		}
		if spec.FlapPeriodNs > 0 && spec.FlapDownNs >= spec.FlapPeriodNs {
			return fmt.Errorf("flap: FlapDownNs %d >= FlapPeriodNs %d",
				spec.FlapDownNs, spec.FlapPeriodNs)
		}
		return nil
	case FailureDegradeSpine, FailureSpineDown, FailureSpineBlackhole:
		return spineRange(spec.Spine, string(spec.Kind))
	case FailureLeafDown:
		if spec.CutLeaf < -1 || spec.CutLeaf >= topo.Leaves {
			return fmt.Errorf("leaf-down: CutLeaf %d out of range [0, %d) (-1 = random)",
				spec.CutLeaf, topo.Leaves)
		}
		return nil
	}
	return fmt.Errorf("unknown failure kind %q", spec.Kind)
}

// flapScenario lowers the static flap failure onto the scenario event
// machinery — the single code path for all timed failures. Defaults (500 ms
// period, half of it down) live here and only here.
func flapScenario(spec FailureSpec, topo Topology) *Scenario {
	period := spec.FlapPeriodNs
	if period <= 0 {
		period = int64(500 * sim.Millisecond)
	}
	down := spec.FlapDownNs
	if down <= 0 {
		down = period / 2
	}
	inner := FailureSpec{
		Kind: FailureDegradeLink, CutLeaf: spec.CutLeaf, CutSpine: spec.CutSpine,
		DegradedBps: spec.DegradedBps,
	}
	if spec.DegradedBps == 0 {
		inner.Kind = FailureCutLink // flap's documented 0 = cut
	}
	return &Scenario{Name: "flap", Events: []ScenarioEvent{{
		AtNs: period - down, Name: "flap",
		DurationNs: down, EveryNs: period,
		Failure: inner,
	}}}
}

// switchDownScenario lowers a static spine-down/leaf-down failure onto the
// scenario machinery: one injection at t=0 that never clears.
func switchDownScenario(spec FailureSpec) *Scenario {
	return &Scenario{Name: string(spec.Kind), Events: []ScenarioEvent{{
		AtNs: 0, Name: string(spec.Kind), Failure: spec,
	}}}
}

// ScenarioNames lists the built-in scenario library in stable order.
func ScenarioNames() []string {
	names := make([]string, 0, len(builtinScenarios))
	for name := range builtinScenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuiltinScenario returns a library scenario sized for the topology.
func BuiltinScenario(name string, topo Topology) (*Scenario, error) {
	fn, ok := builtinScenarios[name]
	if !ok {
		return nil, fmt.Errorf("hermes: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return fn(topo), nil
}

// Library onset: 20 ms, past slow-start and the arrival ramp so the
// pre-onset goodput baseline reflects steady state.
const scenarioOnsetNs = int64(20e6)

var builtinScenarios = map[string]func(Topology) *Scenario{
	// blackhole: the §5.3.3 rack-pair blackhole at spine 0, onset at 20 ms,
	// never cleared — half the cross-rack host pairs lose their spine-0
	// paths while everything else rides through.
	"blackhole": func(topo Topology) *Scenario {
		return &Scenario{Name: "blackhole", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "bh",
				Failure: FailureSpec{Kind: FailureBlackhole, Spine: 0}},
		}}
	},
	// spine-blackhole: spine 0 silently eats everything it carries from
	// 20 ms on, links up, never cleared — the acceptance scenario. Hermes
	// reroutes off the dead spine within a few RTOs; ECMP keeps hashing half
	// its flows into the hole and Presto* loses packets on every sprayed
	// flow, so both stay in the goodput dip until traffic ends.
	"spine-blackhole": func(topo Topology) *Scenario {
		return &Scenario{Name: "spine-blackhole", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "bh",
				Failure: FailureSpec{Kind: FailureSpineBlackhole, Spine: 0}},
		}}
	},
	// blackhole-recover: same, cleared at 45 ms — measures re-convergence
	// and the FailedHold stickiness after restoration.
	"blackhole-recover": func(topo Topology) *Scenario {
		return &Scenario{Name: "blackhole-recover", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "bh",
				Failure: FailureSpec{Kind: FailureBlackhole, Spine: 0}},
			{AtNs: 45e6, Clear: "bh"},
		}}
	},
	// drop-recover: the 2% silent random drop, 20..45 ms.
	"drop-recover": func(topo Topology) *Scenario {
		return &Scenario{Name: "drop-recover", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "drop",
				Failure: FailureSpec{Kind: FailureRandomDrop, Spine: 0, DropRate: 0.02}},
			{AtNs: 45e6, Clear: "drop"},
		}}
	},
	// multi: two simultaneous failures on different spines — a blackhole
	// and a random drop overlapping for 20 ms (the CI smoke scenario).
	"multi": func(topo Topology) *Scenario {
		return &Scenario{Name: "multi", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "bh",
				Failure: FailureSpec{Kind: FailureBlackhole, Spine: 0}},
			{AtNs: 25e6, Name: "drop",
				Failure: FailureSpec{Kind: FailureRandomDrop, Spine: topo.Spines - 1, DropRate: 0.02}},
			{AtNs: 45e6, Clear: "bh"},
			{AtNs: 50e6, Clear: "drop"},
		}}
	},
	// flap: a gray link flapping to 10% capacity, 8 ms down out of every
	// 20 ms, forever — detection AND recovery every cycle.
	"flap": func(topo Topology) *Scenario {
		return &Scenario{Name: "flap", Events: []ScenarioEvent{
			{AtNs: 12e6, Name: "flap", DurationNs: 8e6, EveryNs: 20e6,
				Failure: FailureSpec{Kind: FailureDegradeLink,
					DegradedBps: topo.FabricRateBps / 10}},
		}}
	},
	// spine-down-recover: a whole spine dies at 20 ms and returns at 45 ms.
	"spine-down-recover": func(topo Topology) *Scenario {
		return &Scenario{Name: "spine-down-recover", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "down",
				Failure: FailureSpec{Kind: FailureSpineDown, Spine: 0}},
			{AtNs: 45e6, Clear: "down"},
		}}
	},
	// degrade-recover: one link to half rate, 20..40 ms.
	"degrade-recover": func(topo Topology) *Scenario {
		return &Scenario{Name: "degrade-recover", Events: []ScenarioEvent{
			{AtNs: scenarioOnsetNs, Name: "deg",
				Failure: FailureSpec{Kind: FailureDegradeLink}},
			{AtNs: 40e6, Clear: "deg"},
		}}
	},
}

// RandomScenario generates a deterministic chaos timeline: intensity in
// [0, 1] scales the number of concurrent failures (1..3) and their
// severity. Onsets land in [2, 10) ms and every failure clears by ~35 ms,
// so size the run (Flows, Load) to outlast the timeline — a one-shot event
// past run end is an error by design. Rate-changing failures get distinct
// spines so their snapshots never collide; extras degrade to random drops.
func RandomScenario(topo Topology, seed int64, intensity float64) *Scenario {
	if !(intensity >= 0) { // negative or NaN
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	rng := sim.NewRNG(seed ^ 0x5eed)
	n := 1 + int(intensity*2.99)
	sc := &Scenario{Name: fmt.Sprintf("random-%d", seed)}
	kinds := []FailureKind{
		FailureBlackhole, FailureRandomDrop, FailureCutLink,
		FailureDegradeLink, FailureSpineDown,
	}
	usedSpines := map[int]bool{}
	pickFreeSpine := func() (int, bool) {
		if len(usedSpines) >= topo.Spines {
			return 0, false
		}
		for {
			s := rng.Intn(topo.Spines)
			if !usedSpines[s] {
				usedSpines[s] = true
				return s, true
			}
		}
	}
	for i := 0; i < n; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		onsetNs := int64(2e6) + int64(rng.Intn(8e6))
		durNs := int64(15e6) + int64(rng.Intn(10e6))
		spec := FailureSpec{Kind: kind}
		switch kind {
		case FailureBlackhole:
			spec.Spine = rng.Intn(topo.Spines)
			spec.SrcLeaf, spec.DstLeaf = rng.TwoDistinct(topo.Leaves)
		case FailureRandomDrop:
			spec.Spine = rng.Intn(topo.Spines)
			spec.DropRate = 0.01 + 0.04*intensity*rng.Float64()
		case FailureCutLink, FailureDegradeLink:
			spine, ok := pickFreeSpine()
			if !ok {
				spec = FailureSpec{Kind: FailureRandomDrop,
					Spine: rng.Intn(topo.Spines), DropRate: 0.02}
				break
			}
			spec.CutLeaf, spec.CutSpine = rng.Intn(topo.Leaves), spine
			spec.DegradedBps = topo.FabricRateBps / 10
		case FailureSpineDown:
			spine, ok := pickFreeSpine()
			if !ok {
				spec = FailureSpec{Kind: FailureRandomDrop,
					Spine: rng.Intn(topo.Spines), DropRate: 0.02}
				break
			}
			spec.Spine = spine
		}
		name := fmt.Sprintf("%s-%d", spec.Kind, i)
		sc.Events = append(sc.Events,
			ScenarioEvent{AtNs: onsetNs, Name: name, Failure: spec},
			ScenarioEvent{AtNs: onsetNs + durNs, Clear: name})
	}
	return sc
}
