// Package chaos injects the failures of §2.1 and §5.3 — silent random
// drops and blackholes at a spine switch, cut and degraded links, whole
// switches down — as composable injectors, and runs them on a declarative
// scenario engine: a Scenario is a timeline of events — inject a failure at
// t1, clear it at t2, repeat a flap every period — over injectors that may
// overlap on the same switch or link. A run's static failure is one
// injector applied before traffic. Every injector snapshots exactly what it
// changes and restores it on revert, so mid-run recovery is first-class,
// and all randomness flows through the run's seeded RNG, so a scenario is
// deterministic per seed. The recovery analysis (Compute) reads the flight
// recorder back out to score how fast a load balancing scheme detected,
// rerouted around, and re-converged after each activation — the §5.3
// resilience questions the paper answers with testbed experiments.
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

// Injector is one composable failure. Apply installs it; Revert must
// restore the exact pre-Apply state (link rates, drop hooks), so injectors
// snapshot whatever they change. The runner never overlaps activations of
// the same injector, so Apply/Revert alternate strictly. An injector trusts
// its parameters: whoever builds one checks them against the fabric first.
type Injector interface {
	// Kind is the stable failure-kind string ("blackhole", "random-drop", ...).
	Kind() string
	// Label describes the activation for logs and scorecards.
	Label() string
	// Apply installs the failure. Random picks resolve here.
	Apply(env Env) error
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

// Blackhole drops traffic between half of the host pairs of a rack pair at
// one spine switch (§5.3.3's TCAM-deficit blackhole).
type Blackhole struct {
	Spine            int // -1 = random at apply time
	SrcLeaf, DstLeaf int

	spine int
	hook  int
}

func (b *Blackhole) Kind() string { return "blackhole" }

func (b *Blackhole) Label() string {
	return fmt.Sprintf("blackhole(spine=%d, racks %d<->%d)", b.spine, b.SrcLeaf, b.DstLeaf)
}

// Apply hooks the spine to drop the packets of every host pair between the
// two racks whose ids have an even sum: half of the pairs, in a fixed
// pattern as a faulty TCAM entry would match them, and in both directions,
// so the ACKs of affected flows die too.
func (b *Blackhole) Apply(env Env) error {
	nw, src, dst := env.Net, b.SrcLeaf, b.DstLeaf
	b.spine = pickSpine(env, b.Spine)
	b.hook = nw.Spines[b.spine].AddDropFn(func(p *net.Packet) bool {
		s, d := nw.LeafOf(p.Src), nw.LeafOf(p.Dst)
		return ((s == src && d == dst) || (s == dst && d == src)) && (p.Src+p.Dst)%2 == 0
	})
	return nil
}

func (b *Blackhole) Revert(env Env) { env.Net.Spines[b.spine].RemoveDropFn(b.hook) }

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
	hook  int
}

func (b *SpineBlackhole) Kind() string { return "spine-blackhole" }

func (b *SpineBlackhole) Label() string {
	return fmt.Sprintf("spine-blackhole(spine=%d)", b.spine)
}

func (b *SpineBlackhole) Apply(env Env) error {
	b.spine = pickSpine(env, b.Spine)
	b.hook = env.Net.Spines[b.spine].AddDropFn(dropAll)
	return nil
}

func (b *SpineBlackhole) Revert(env Env) { env.Net.Spines[b.spine].RemoveDropFn(b.hook) }

func (b *SpineBlackhole) Scope() Scope { return Scope{Spines: []int{b.spine}} }

// RandomDrop silently drops each packet transiting one spine with the given
// probability (§5.3.3's 2% malfunction). High-priority control traffic
// (ACKs, probe echoes) is dropped too: the malfunction is below the
// queueing layer.
type RandomDrop struct {
	Spine int // -1 = random at apply time
	Rate  float64

	spine int
	hook  int
}

func (r *RandomDrop) Kind() string { return "random-drop" }

func (r *RandomDrop) Label() string {
	return fmt.Sprintf("random-drop(spine=%d, rate=%g)", r.spine, r.Rate)
}

// Apply's hook draws once from the run RNG for every packet; the switch
// consults every hook on every packet, so a co-resident failure never
// changes how many draws this one makes.
func (r *RandomDrop) Apply(env Env) error {
	rng, rate := env.Rng, r.Rate
	r.spine = pickSpine(env, r.Spine)
	r.hook = env.Net.Spines[r.spine].AddDropFn(func(*net.Packet) bool { return rng.Float64() < rate })
	return nil
}

func (r *RandomDrop) Revert(env Env) { env.Net.Spines[r.spine].RemoveDropFn(r.hook) }

func (r *RandomDrop) Scope() Scope { return Scope{Spines: []int{r.spine}} }

// Link re-rates every cable of one leaf-spine link to Bps (0 = cut the
// link), restoring the exact per-cable rates on revert.
type Link struct {
	Leaf, Spine int
	Bps         int64

	saved []int64
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

func (l *Link) Apply(env Env) error {
	nw := env.Net
	l.saved = l.saved[:0]
	for c := 0; c < nw.Cables(); c++ {
		l.saved = append(l.saved, nw.CableRate(l.Leaf, l.Spine, c))
	}
	nw.SetFabricLink(l.Leaf, l.Spine, l.Bps)
	return nil
}

func (l *Link) Revert(env Env) {
	for c, bps := range l.saved {
		env.Net.SetCable(l.Leaf, l.Spine, c, bps)
	}
}

func (l *Link) Scope() Scope {
	return Scope{Spines: []int{l.Spine}, Leaves: []int{l.Leaf}}
}

// CutCable removes one physical cable of a leaf-spine link (the testbed
// Fig 8b cut), restoring its rate on revert.
type CutCable struct {
	Leaf, Spine, Cable int

	saved int64
}

func (c *CutCable) Kind() string { return "cut-cable" }

func (c *CutCable) Label() string {
	return fmt.Sprintf("cut-cable(leaf=%d, spine=%d, cable=%d)", c.Leaf, c.Spine, c.Cable)
}

func (c *CutCable) Apply(env Env) error {
	c.saved = env.Net.CableRate(c.Leaf, c.Spine, c.Cable)
	env.Net.SetCable(c.Leaf, c.Spine, c.Cable, 0)
	return nil
}

func (c *CutCable) Revert(env Env) {
	env.Net.SetCable(c.Leaf, c.Spine, c.Cable, c.saved)
}

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
	saved [][]int64
}

func (d *DegradeFraction) Kind() string { return "degrade" }

func (d *DegradeFraction) Label() string {
	return fmt.Sprintf("degrade(fraction=%g, bps=%d, links=%d)", d.Fraction, d.Bps, len(d.links))
}

func (d *DegradeFraction) Apply(env Env) error {
	nw := env.Net
	total := nw.Cfg.Leaves * nw.Cfg.Spines
	n := int(d.Fraction * float64(total))
	perm := env.Rng.Perm(total)
	d.links = d.links[:0]
	d.saved = d.saved[:0]
	for i := 0; i < n; i++ {
		l, s := perm[i]/nw.Cfg.Spines, perm[i]%nw.Cfg.Spines
		rates := make([]int64, nw.Cables())
		for c := range rates {
			rates[c] = nw.CableRate(l, s, c)
		}
		d.links = append(d.links, [2]int{l, s})
		d.saved = append(d.saved, rates)
		nw.SetFabricLink(l, s, d.Bps)
	}
	return nil
}

func (d *DegradeFraction) Revert(env Env) {
	for i, lk := range d.links {
		for c, bps := range d.saved[i] {
			env.Net.SetCable(lk[0], lk[1], c, bps)
		}
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
	saved [][]int64 // per leaf, per cable
}

func (d *DegradeSpine) Kind() string { return "degrade-spine" }

func (d *DegradeSpine) Label() string {
	return fmt.Sprintf("degrade-spine(spine=%d, bps=%d)", d.spine, d.Bps)
}

func (d *DegradeSpine) Apply(env Env) error {
	nw := env.Net
	d.spine = pickSpine(env, d.Spine)
	d.saved = d.saved[:0]
	for l := 0; l < nw.Cfg.Leaves; l++ {
		rates := make([]int64, nw.Cables())
		for c := range rates {
			rates[c] = nw.CableRate(l, d.spine, c)
		}
		d.saved = append(d.saved, rates)
		nw.SetFabricLink(l, d.spine, d.Bps)
	}
	return nil
}

func (d *DegradeSpine) Revert(env Env) {
	for l, rates := range d.saved {
		for c, bps := range rates {
			env.Net.SetCable(l, d.spine, c, bps)
		}
	}
}

func (d *DegradeSpine) Scope() Scope { return Scope{Spines: []int{d.spine}} }

// SwitchDown takes a whole switch out of service: every attached fabric
// link is cut (packets en route to its ports drop as down-link drops) and a
// drop-all hook swallows anything already transiting the device — for a
// leaf, that includes intra-rack traffic. Revert restores the exact link
// rates and removes the hook.
type SwitchDown struct {
	Leaf  bool // true: Index is a leaf switch, false: a spine
	Index int  // -1 = random at apply time (spine or leaf per Leaf)

	index int
	hook  int
	saved [][]int64
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

func (s *SwitchDown) Apply(env Env) error {
	nw := env.Net
	var sw *net.Switch
	s.saved = s.saved[:0]
	if s.Leaf {
		s.index = s.Index
		if s.index < 0 {
			s.index = env.Rng.Intn(nw.Cfg.Leaves)
		}
		sw = nw.Leaves[s.index]
		for sp := 0; sp < nw.Cfg.Spines; sp++ {
			rates := make([]int64, nw.Cables())
			for c := range rates {
				rates[c] = nw.CableRate(s.index, sp, c)
			}
			s.saved = append(s.saved, rates)
			nw.SetFabricLink(s.index, sp, 0)
		}
	} else {
		s.index = pickSpine(env, s.Index)
		sw = nw.Spines[s.index]
		for l := 0; l < nw.Cfg.Leaves; l++ {
			rates := make([]int64, nw.Cables())
			for c := range rates {
				rates[c] = nw.CableRate(l, s.index, c)
			}
			s.saved = append(s.saved, rates)
			nw.SetFabricLink(l, s.index, 0)
		}
	}
	s.hook = sw.AddDropFn(dropAll)
	return nil
}

func (s *SwitchDown) Revert(env Env) {
	nw := env.Net
	if s.Leaf {
		nw.Leaves[s.index].RemoveDropFn(s.hook)
		for sp, rates := range s.saved {
			for c, bps := range rates {
				nw.SetCable(s.index, sp, c, bps)
			}
		}
		return
	}
	nw.Spines[s.index].RemoveDropFn(s.hook)
	for l, rates := range s.saved {
		for c, bps := range rates {
			nw.SetCable(l, s.index, c, bps)
		}
	}
}

func (s *SwitchDown) Scope() Scope {
	if s.Leaf {
		return Scope{Leaves: []int{s.index}}
	}
	return Scope{Spines: []int{s.index}}
}
