package hermes

import (
	"errors"
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
	// Clear names the inject event to revert; exclusive with Failure. An
	// event takes at most one Clear, and none when it has a DurationNs:
	// validation rejects a second Clear and a Clear of a self-clearing
	// event, so a clear always finds its event active.
	Clear string `json:"clear,omitempty"`
	// DurationNs auto-clears the injection this long after each onset; an
	// event with a duration takes no explicit Clear.
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

// toChaos checks the JSON-able scenario against the topology and lowers it
// to chaos injectors. Injector instances are freshly built per call, so one
// Scenario value is safe to share across the runs of a RunConfigs batch.
func (s *Scenario) toChaos(topo Topology) (*chaos.Scenario, error) {
	out := &chaos.Scenario{Name: s.Name}
	for i, ev := range s.Events {
		ce := chaos.Event{
			At: sim.Time(ev.AtNs), Name: ev.Name, Clear: ev.Clear,
			Duration: sim.Time(ev.DurationNs), Every: sim.Time(ev.EveryNs),
			Count: ev.Count,
		}
		if ev.Clear == "" {
			inj, err := injectorFor(ev.Failure, topo)
			if err != nil {
				return nil, fmt.Errorf("scenario %q event %d: %w", s.Name, i, err)
			}
			ce.Inject = inj
		}
		out.Events = append(out.Events, ce)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// injectorFor checks one failure spec, static or a scenario event's, against
// the topology and builds its chaos injector; FailureNone builds none. Each
// kind's ranges and defaults live only here. Out-of-range indices, negative
// or non-finite rates and fractions, and degraded rates above the fabric's
// are errors, never panics or silent clamps; zero values take the kind's
// default (rate 0 -> 2%, racks 0/0 -> first/last, spine -1 -> random, zero
// degraded rate -> a fifth of the cable rate...).
func injectorFor(spec FailureSpec, topo Topology) (chaos.Injector, error) {
	kind := spec.Kind
	spineRange := func() error {
		if spec.Spine < -1 || spec.Spine >= topo.Spines {
			return fmt.Errorf("%s: spine %d out of range [0, %d) (-1 = random)",
				kind, spec.Spine, topo.Spines)
		}
		return nil
	}
	leafRange := func(leaf int, field string) error {
		if leaf < 0 || leaf >= topo.Leaves {
			return fmt.Errorf("%s: %s %d out of range [0, %d)", kind, field, leaf, topo.Leaves)
		}
		return nil
	}
	linkRange := func() error {
		if err := leafRange(spec.CutLeaf, "CutLeaf"); err != nil {
			return err
		}
		if spec.CutSpine < 0 || spec.CutSpine >= topo.Spines {
			return fmt.Errorf("%s: CutSpine %d out of range [0, %d)", kind, spec.CutSpine, topo.Spines)
		}
		return nil
	}
	unitRange := func(field string, v float64) error {
		if !(v >= 0 && v <= 1) { // NaN too
			return fmt.Errorf("%s: %s %g out of range [0, 1]", kind, field, v)
		}
		return nil
	}
	// degraded is the rate of each degraded cable: DegradedBps, or the
	// cable rate divided by share when it is zero.
	degraded := func(share int64) (int64, error) {
		if spec.DegradedBps > topo.FabricRateBps {
			return 0, fmt.Errorf("%s: DegradedBps %d above the fabric's %d per cable: a degradation cannot add capacity",
				kind, spec.DegradedBps, topo.FabricRateBps)
		}
		if spec.DegradedBps == 0 {
			return topo.FabricRateBps / share, nil
		}
		return spec.DegradedBps, nil
	}
	if spec.DegradedBps < 0 {
		return nil, fmt.Errorf("%s: negative DegradedBps %d", kind, spec.DegradedBps)
	}
	// JSON has no NaN or infinity, so a config holding one could be neither
	// checkpointed nor reported, even where its kind ignores the field.
	if math.IsNaN(spec.DropRate) || math.IsInf(spec.DropRate, 0) ||
		math.IsNaN(spec.Fraction) || math.IsInf(spec.Fraction, 0) {
		return nil, fmt.Errorf("%s: DropRate %g and Fraction %g must be finite", kind, spec.DropRate, spec.Fraction)
	}

	var inj chaos.Injector
	var err error
	switch kind {
	case FailureNone:
	case FailureRandomDrop:
		rate := spec.DropRate
		if rate == 0 {
			rate = 0.02
		}
		inj = &chaos.RandomDrop{Spine: spec.Spine, Rate: rate}
		err = errors.Join(unitRange("DropRate", spec.DropRate), spineRange())
	case FailureBlackhole:
		src, dst := spec.SrcLeaf, spec.DstLeaf
		err = errors.Join(spineRange(), leafRange(src, "SrcLeaf"), leafRange(dst, "DstLeaf"))
		if src == dst {
			src, dst = 0, topo.Leaves-1
		}
		inj = &chaos.Blackhole{Spine: spec.Spine, SrcLeaf: src, DstLeaf: dst}
	case FailureSpineBlackhole:
		inj, err = &chaos.SpineBlackhole{Spine: spec.Spine}, spineRange()
	case FailureDegrade:
		frac := spec.Fraction
		if frac == 0 {
			frac = 0.2
		}
		bps, bpsErr := degraded(5)
		inj = &chaos.DegradeFraction{Fraction: frac, Bps: bps}
		err = errors.Join(unitRange("Fraction", spec.Fraction), bpsErr)
	case FailureCutLink:
		inj, err = &chaos.Link{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Bps: 0}, linkRange()
	case FailureCutCable:
		if cables := max(topo.CablesPerLink, 1); spec.CutCable < -1 || spec.CutCable >= cables {
			err = fmt.Errorf("cut-cable: CutCable %d out of range [0, %d)", spec.CutCable, cables)
		}
		inj = &chaos.CutCable{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Cable: max(spec.CutCable, 0)}
		err = errors.Join(linkRange(), err)
	case FailureDegradeLink:
		bps, bpsErr := degraded(2)
		inj = &chaos.Link{Leaf: spec.CutLeaf, Spine: spec.CutSpine, Bps: bps}
		err = errors.Join(linkRange(), bpsErr)
	case FailureDegradeSpine:
		bps, bpsErr := degraded(5)
		inj = &chaos.DegradeSpine{Spine: spec.Spine, Bps: bps}
		err = errors.Join(spineRange(), bpsErr)
	case FailureSpineDown:
		inj, err = &chaos.SwitchDown{Leaf: false, Index: spec.Spine}, spineRange()
	case FailureLeafDown:
		if spec.CutLeaf < -1 || spec.CutLeaf >= topo.Leaves {
			err = fmt.Errorf("leaf-down: CutLeaf %d out of range [0, %d) (-1 = random)", spec.CutLeaf, topo.Leaves)
		}
		inj = &chaos.SwitchDown{Leaf: true, Index: spec.CutLeaf}
	case FailureFlap:
		err = fmt.Errorf("kind %q is not a scenario injection: flapping IS the event machinery, use EveryNs+DurationNs on a degrade-link or cut-link event", kind)
	default:
		err = fmt.Errorf("unknown failure kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return inj, nil
}

// scenarioSugar lowers a timed static failure onto the scenario machinery,
// the one code path for everything time-varying, and returns nil for any
// other kind. A flap is a repeating degrade-link event, or cut-link when
// DegradedBps is 0, with a 500 ms period and half of it down by default; its
// defaults and its own ranges live here and only here. A spine-down or
// leaf-down is one injection at t=0 that never clears. The lowered event's
// failure is checked with the rest of its scenario.
func scenarioSugar(spec FailureSpec) (*Scenario, error) {
	switch spec.Kind {
	case FailureFlap:
		if spec.FlapPeriodNs < 0 || spec.FlapDownNs < 0 {
			return nil, fmt.Errorf("flap: negative FlapPeriodNs/FlapDownNs")
		}
		if spec.FlapPeriodNs > 0 && spec.FlapDownNs >= spec.FlapPeriodNs {
			return nil, fmt.Errorf("flap: FlapDownNs %d >= FlapPeriodNs %d",
				spec.FlapDownNs, spec.FlapPeriodNs)
		}
		period := spec.FlapPeriodNs
		if period == 0 {
			period = int64(500 * sim.Millisecond)
		}
		down := spec.FlapDownNs
		if down == 0 {
			down = period / 2
		}
		inner := spec
		inner.Kind = FailureDegradeLink
		if spec.DegradedBps == 0 {
			inner.Kind = FailureCutLink // flap's documented 0 = cut
		}
		return &Scenario{Name: "flap", Events: []ScenarioEvent{{
			AtNs: period - down, Name: "flap",
			DurationNs: down, EveryNs: period,
			Failure: inner,
		}}}, nil
	case FailureSpineDown, FailureLeafDown:
		return &Scenario{Name: string(spec.Kind), Events: []ScenarioEvent{{
			AtNs: 0, Name: string(spec.Kind), Failure: spec,
		}}}, nil
	}
	return nil, nil
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
