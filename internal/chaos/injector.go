// Package chaos injects the failures of §2.1 and §5.3 — silent random
// drops and blackholes at a spine switch, cut and degraded links, whole
// switches down — as composable injectors, and runs them on a declarative
// scenario engine: a Scenario is a timeline of events — inject a failure at
// t1, clear it at t2, repeat a flap every period — over injectors that may
// overlap on the same switch or link. A run's static failure is one
// injector applied before traffic. Every injector changes the fabric only
// through a cable re-rating, a drop hook or both, each of which records
// what it changed and undoes exactly that on revert, so mid-run recovery is
// first-class, and all randomness flows through the run's seeded RNG, so a
// scenario is deterministic per seed. The recovery analysis (Compute) reads
// the flight recorder back out to score how fast a load balancing scheme
// detected, rerouted around, and re-converged after each activation — the
// §5.3 resilience questions the paper answers with testbed experiments.
package chaos

import (
	"fmt"
	"sort"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Env is the fabric surface injectors act on. Rng is the run's seeded RNG:
// random picks (spine -1) draw from it at apply time, so they are
// deterministic per seed and per event order.
type Env struct {
	Net *net.Network
	Rng *sim.RNG
}

// Scope names the fabric elements one activation touched, resolved after
// random picks. The recovery analysis uses it to attribute detection signals
// (path-state transitions) to the failure that caused them.
type Scope struct {
	Spines []int `json:"spines,omitempty"`
	Leaves []int `json:"leaves,omitempty"`
}

// HasPath reports whether a path (spine*cables+cable) between monitor leaf
// and destination leaf falls inside the scope. Every populated dimension
// must match — a blackhole scoped to spine 0 between leaves 0 and 1 does
// not claim transitions on spine 1 just because they share a leaf — and an
// empty scope matches everything.
func (s Scope) HasPath(leaf, dst, path, cables int) bool {
	if cables < 1 {
		cables = 1
	}
	if len(s.Spines) > 0 {
		spine := path / cables
		hit := false
		for _, sp := range s.Spines {
			if sp == spine {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	if len(s.Leaves) > 0 {
		hit := false
		for _, l := range s.Leaves {
			if l == leaf || l == dst {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Injector is one composable failure. Apply installs it and cannot fail;
// Revert restores the exact pre-Apply state (link rates, drop hooks). The
// runner never overlaps activations of the same injector, so Apply/Revert
// alternate strictly. An injector trusts its parameters: whoever builds one
// checks them against the fabric first.
type Injector interface {
	// Kind is the stable failure-kind string ("blackhole", "random-drop", ...).
	Kind() string
	// Label describes the activation for logs and scorecards.
	Label() string
	// Apply installs the failure. Random picks resolve here.
	Apply(env Env)
	// Revert restores the pre-Apply state.
	Revert(env Env)
	// Scope reports what the failure touched; valid after Apply.
	Scope() Scope
}

// pickSpine resolves a spine index: -1 draws uniformly from the run RNG.
func pickSpine(env Env, spine int) int {
	if spine < 0 {
		return env.Rng.Intn(env.Net.Cfg.Spines)
	}
	return spine
}

// dropAll is the drop hook of a switch that forwards nothing.
func dropAll(*net.Packet) bool { return true }

// rerating is the re-rating half of an injector: it records every cable it
// re-rates with the rate the cable had, and Revert restores them in the
// order they were set.
type rerating struct {
	saved []savedCable
}

type savedCable struct {
	leaf, spine, cable int
	bps                int64
}

// rerateCable sets one cable of a leaf-spine link to bps.
func (r *rerating) rerateCable(nw *net.Network, leaf, spine, cable int, bps int64) {
	r.saved = append(r.saved, savedCable{leaf, spine, cable, nw.CableRate(leaf, spine, cable)})
	nw.SetCable(leaf, spine, cable, bps)
}

// rerateLink sets every cable of a leaf-spine link to bps (0 = cut it).
func (r *rerating) rerateLink(nw *net.Network, leaf, spine int, bps int64) {
	for c := 0; c < nw.Cables(); c++ {
		r.rerateCable(nw, leaf, spine, c, bps)
	}
}

// Revert restores every re-rated cable and forgets them.
func (r *rerating) Revert(env Env) {
	for _, c := range r.saved {
		env.Net.SetCable(c.leaf, c.spine, c.cable, c.bps)
	}
	r.saved = r.saved[:0]
}

// dropHook is the drop-hook half of an injector: it records the hook it
// installs on a switch, and Revert removes it.
type dropHook struct {
	sw *net.Switch
	id int
}

func (h *dropHook) install(sw *net.Switch, fn func(*net.Packet) bool) {
	h.sw, h.id = sw, sw.AddDropFn(fn)
}

// Revert removes the hook; a second Revert removes nothing.
func (h *dropHook) Revert(Env) { h.sw.RemoveDropFn(h.id) }

// Blackhole drops traffic between half of the host pairs of a rack pair at
// one spine switch (§5.3.3's TCAM-deficit blackhole).
type Blackhole struct {
	Spine            int // -1 = random at apply time
	SrcLeaf, DstLeaf int

	spine int
	dropHook
}

func (b *Blackhole) Kind() string { return "blackhole" }

func (b *Blackhole) Label() string {
	return fmt.Sprintf("blackhole(spine=%d, racks %d<->%d)", b.spine, b.SrcLeaf, b.DstLeaf)
}

// Apply hooks the spine to drop the packets of every host pair between the
// two racks whose ids have an even sum: half of the pairs, in a fixed
// pattern as a faulty TCAM entry would match them, and in both directions,
// so the ACKs of affected flows die too.
func (b *Blackhole) Apply(env Env) {
	nw, src, dst := env.Net, b.SrcLeaf, b.DstLeaf
	b.spine = pickSpine(env, b.Spine)
	b.install(nw.Spines[b.spine], func(p *net.Packet) bool {
		s, d := nw.LeafOf(p.Src), nw.LeafOf(p.Dst)
		return ((s == src && d == dst) || (s == dst && d == src)) && (p.Src+p.Dst)%2 == 0
	})
}

func (b *Blackhole) Scope() Scope {
	return Scope{Spines: []int{b.spine}, Leaves: []int{b.SrcLeaf, b.DstLeaf}}
}

// SpineBlackhole silently drops every packet transiting one spine switch
// while all its links stay up — the worst §5.3.3-class failure: routing
// still advertises the paths, so hash-based schemes keep sending into the
// hole and spray-based schemes lose packets on every flow.
type SpineBlackhole struct {
	Spine int // -1 = random at apply time

	spine int
	dropHook
}

func (b *SpineBlackhole) Kind() string { return "spine-blackhole" }

func (b *SpineBlackhole) Label() string {
	return fmt.Sprintf("spine-blackhole(spine=%d)", b.spine)
}

func (b *SpineBlackhole) Apply(env Env) {
	b.spine = pickSpine(env, b.Spine)
	b.install(env.Net.Spines[b.spine], dropAll)
}

func (b *SpineBlackhole) Scope() Scope { return Scope{Spines: []int{b.spine}} }

// RandomDrop silently drops each packet transiting one spine with the given
// probability (§5.3.3's 2% malfunction). High-priority control traffic
// (ACKs, probe echoes) is dropped too: the malfunction is below the
// queueing layer.
type RandomDrop struct {
	Spine int // -1 = random at apply time
	Rate  float64

	spine int
	dropHook
}

func (r *RandomDrop) Kind() string { return "random-drop" }

func (r *RandomDrop) Label() string {
	return fmt.Sprintf("random-drop(spine=%d, rate=%g)", r.spine, r.Rate)
}

// Apply's hook draws once from the run RNG for every packet; the switch
// consults every hook on every packet, so a co-resident failure never
// changes how many draws this one makes.
func (r *RandomDrop) Apply(env Env) {
	rng, rate := env.Rng, r.Rate
	r.spine = pickSpine(env, r.Spine)
	r.install(env.Net.Spines[r.spine], func(*net.Packet) bool { return rng.Float64() < rate })
}

func (r *RandomDrop) Scope() Scope { return Scope{Spines: []int{r.spine}} }

// Link re-rates every cable of one leaf-spine link to Bps (0 = cut the
// link), restoring the exact per-cable rates on revert.
type Link struct {
	Leaf, Spine int
	Bps         int64

	rerating
}

func (l *Link) Kind() string {
	if l.Bps == 0 {
		return "cut-link"
	}
	return "degrade-link"
}

func (l *Link) Label() string {
	return fmt.Sprintf("%s(leaf=%d, spine=%d, bps=%d)", l.Kind(), l.Leaf, l.Spine, l.Bps)
}

func (l *Link) Apply(env Env) { l.rerateLink(env.Net, l.Leaf, l.Spine, l.Bps) }

func (l *Link) Scope() Scope {
	return Scope{Spines: []int{l.Spine}, Leaves: []int{l.Leaf}}
}

// CutCable removes one physical cable of a leaf-spine link (the testbed
// Fig 8b cut), restoring its rate on revert.
type CutCable struct {
	Leaf, Spine, Cable int

	rerating
}

func (c *CutCable) Kind() string { return "cut-cable" }

func (c *CutCable) Label() string {
	return fmt.Sprintf("cut-cable(leaf=%d, spine=%d, cable=%d)", c.Leaf, c.Spine, c.Cable)
}

func (c *CutCable) Apply(env Env) { c.rerateCable(env.Net, c.Leaf, c.Spine, c.Cable, 0) }

func (c *CutCable) Scope() Scope {
	return Scope{Spines: []int{c.Spine}, Leaves: []int{c.Leaf}}
}

// DegradeFraction re-rates a random fraction of all leaf-spine links to Bps
// (§5.3.2's 20%-of-links asymmetry), selected by the run RNG at apply time
// and restored exactly on revert.
type DegradeFraction struct {
	Fraction float64
	Bps      int64

	links [][2]int
	rerating
}

func (d *DegradeFraction) Kind() string { return "degrade" }

func (d *DegradeFraction) Label() string {
	return fmt.Sprintf("degrade(fraction=%g, bps=%d, links=%d)", d.Fraction, d.Bps, len(d.links))
}

func (d *DegradeFraction) Apply(env Env) {
	nw := env.Net
	total := nw.Cfg.Leaves * nw.Cfg.Spines
	n := int(d.Fraction * float64(total))
	perm := env.Rng.Perm(total)
	d.links = d.links[:0]
	for i := 0; i < n; i++ {
		l, s := perm[i]/nw.Cfg.Spines, perm[i]%nw.Cfg.Spines
		d.links = append(d.links, [2]int{l, s})
		d.rerateLink(nw, l, s, d.Bps)
	}
}

func (d *DegradeFraction) Scope() Scope {
	var sc Scope
	spines := map[int]bool{}
	leaves := map[int]bool{}
	for _, lk := range d.links {
		leaves[lk[0]] = true
		spines[lk[1]] = true
	}
	for s := range spines {
		sc.Spines = append(sc.Spines, s)
	}
	for l := range leaves {
		sc.Leaves = append(sc.Leaves, l)
	}
	sort.Ints(sc.Spines)
	sort.Ints(sc.Leaves)
	return sc
}

// DegradeSpine re-rates every link of one spine switch (§2.1's
// heterogeneous-device asymmetry: one slower spine tier).
type DegradeSpine struct {
	Spine int // -1 = random at apply time
	Bps   int64

	spine int
	rerating
}

func (d *DegradeSpine) Kind() string { return "degrade-spine" }

func (d *DegradeSpine) Label() string {
	return fmt.Sprintf("degrade-spine(spine=%d, bps=%d)", d.spine, d.Bps)
}

func (d *DegradeSpine) Apply(env Env) {
	d.spine = pickSpine(env, d.Spine)
	for l := 0; l < env.Net.Cfg.Leaves; l++ {
		d.rerateLink(env.Net, l, d.spine, d.Bps)
	}
}

func (d *DegradeSpine) Scope() Scope { return Scope{Spines: []int{d.spine}} }

// SwitchDown takes a whole switch out of service: every attached fabric
// link is cut (packets en route to its ports drop as down-link drops) and a
// drop-all hook swallows anything already transiting the device — for a
// leaf, that includes intra-rack traffic. Revert removes the hook and
// restores the exact link rates.
type SwitchDown struct {
	Leaf  bool // true: Index is a leaf switch, false: a spine
	Index int  // -1 = random at apply time (spine or leaf per Leaf)

	index int
	rerating
	dropHook
}

func (s *SwitchDown) Kind() string {
	if s.Leaf {
		return "leaf-down"
	}
	return "spine-down"
}

func (s *SwitchDown) Label() string {
	return fmt.Sprintf("%s(index=%d)", s.Kind(), s.index)
}

func (s *SwitchDown) Apply(env Env) {
	nw := env.Net
	if s.Leaf {
		s.index = s.Index
		if s.index < 0 {
			s.index = env.Rng.Intn(nw.Cfg.Leaves)
		}
		for sp := 0; sp < nw.Cfg.Spines; sp++ {
			s.rerateLink(nw, s.index, sp, 0)
		}
		s.install(nw.Leaves[s.index], dropAll)
		return
	}
	s.index = pickSpine(env, s.Index)
	for l := 0; l < nw.Cfg.Leaves; l++ {
		s.rerateLink(nw, l, s.index, 0)
	}
	s.install(nw.Spines[s.index], dropAll)
}

func (s *SwitchDown) Revert(env Env) {
	s.dropHook.Revert(env)
	s.rerating.Revert(env)
}

func (s *SwitchDown) Scope() Scope {
	if s.Leaf {
		return Scope{Leaves: []int{s.index}}
	}
	return Scope{Spines: []int{s.index}}
}
