// Package failure holds no code, only these tests of the switch failures
// of §2.1 and the asymmetric links of §5.3: a silent random drop and a
// rack-pair blackhole at one spine, a degraded fraction of the links and a
// cut link, each applied through its internal/chaos injector, the one path
// that both a static Config.Failure and a scenario take.
package failure

import (
	"reflect"
	"testing"

	"github.com/hermes-repro/hermes/internal/chaos"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// testEnv is a 4x4 fabric of one cable per link and 4 hosts per rack, with
// the run RNG seeded by seed.
func testEnv(t *testing.T, seed int64) chaos.Env {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 4, Spines: 4, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return chaos.Env{Net: nw, Rng: sim.NewRNG(seed)}
}

// linksAt lists the (leaf, spine) links whose total rate is bps.
func linksAt(nw *net.Network, bps int64) [][2]int {
	var out [][2]int
	for l := 0; l < nw.Cfg.Leaves; l++ {
		for s := 0; s < nw.Cfg.Spines; s++ {
			if nw.FabricLinkRate(l, s) == bps {
				out = append(out, [2]int{l, s})
			}
		}
	}
	return out
}

func TestRandomDropRate(t *testing.T) {
	env := testEnv(t, 2)
	(&chaos.RandomDrop{Spine: 0, Rate: 0.1}).Apply(env)
	drops := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if env.Net.Spines[0].ConsultDropFns(&net.Packet{}) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("drop fraction = %.3f, want ~0.10", frac)
	}
	// The hook drew from the run RNG once per packet.
	ref := sim.NewRNG(2)
	for i := 0; i < n; i++ {
		ref.Float64()
	}
	if got, want := env.Rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("run RNG out of step after %d packets: %v, want %v", n, got, want)
	}
}

func TestBlackholePredicate(t *testing.T) {
	env := testEnv(t, 2)
	(&chaos.Blackhole{Spine: 1, SrcLeaf: 0, DstLeaf: 3}).Apply(env)
	match := func(src, dst int) bool {
		return env.Net.Spines[1].ConsultDropFns(&net.Packet{Src: src, Dst: dst})
	}
	// Hosts 0..3 are rack 0, hosts 12..15 are rack 3.
	affected, clean := 0, 0
	for s := 0; s < 4; s++ {
		for d := 12; d < 16; d++ {
			if match(s, d) {
				affected++
				// The reverse direction (ACK path) must match too.
				if !match(d, s) {
					t.Fatalf("reverse of affected pair (%d,%d) not matched", s, d)
				}
			} else {
				clean++
			}
		}
	}
	if affected != 8 || clean != 8 {
		t.Fatalf("affected=%d clean=%d, want half of 16 pairs", affected, clean)
	}
	// Unrelated rack pairs must never match.
	if match(0, 5) || match(4, 12) || match(12, 4) {
		t.Fatal("predicate matched traffic outside the rack pair")
	}
}

func TestBlackholeInstall(t *testing.T) {
	env := testEnv(t, 2)
	(&chaos.Blackhole{Spine: 1, SrcLeaf: 0, DstLeaf: 3}).Apply(env)
	nw := env.Net
	if !nw.Spines[1].ConsultDropFns(&net.Packet{Src: 0, Dst: 12}) {
		t.Fatal("matching packet not dropped")
	}
	if nw.Spines[1].ConsultDropFns(&net.Packet{Src: 0, Dst: 13}) {
		t.Fatal("non-matching pair dropped")
	}
	// Only the chosen spine drops.
	for s, sw := range nw.Spines {
		if s != 1 && sw.ConsultDropFns(&net.Packet{Src: 0, Dst: 12}) {
			t.Fatalf("spine %d dropped a blackholed pair; only spine 1 is faulty", s)
		}
	}
	for l, sw := range nw.Leaves {
		if got := sw.DropFnCount(); got != 0 {
			t.Fatalf("leaf %d has %d drop hooks, want 0", l, got)
		}
	}
}

// TestCoResidentInjectorsBothCount is the regression test for the DropFn
// clobbering bug: installing a second injector on the same spine used to
// overwrite the first hook entirely. With the drop-hook chain, a blackhole
// and a random drop applied together must BOTH see the full packet stream:
// the random drop draws from the run RNG once per packet, including the
// ones the blackhole also claims.
func TestCoResidentInjectorsBothCount(t *testing.T) {
	env := testEnv(t, 9)
	sp := env.Net.Spines[0]
	bh := &chaos.Blackhole{Spine: 0, SrcLeaf: 0, DstLeaf: 3}
	rd := &chaos.RandomDrop{Spine: 0, Rate: 0.5}
	bh.Apply(env)
	rd.Apply(env)
	if got := sp.DropFnCount(); got != 2 {
		t.Fatalf("DropFnCount = %d after two applies, want 2", got)
	}

	ref := sim.NewRNG(9) // the run RNG, drawn in lockstep
	const n = 10_000
	matched, unmatched, randomDrops := 0, 0, 0
	for i := 0; i < n; i++ {
		// Every host pair between rack 0 (hosts 0..3) and rack 3 (12..15).
		pkt := &net.Packet{Src: i % 4, Dst: 12 + i/4%4}
		wasMatch := (pkt.Src+pkt.Dst)%2 == 0
		randomDrop := ref.Float64() < 0.5
		dropped := sp.ConsultDropFns(pkt)
		if wasMatch {
			matched++
			if !dropped {
				t.Fatal("blackholed packet survived with co-resident random drop")
			}
			continue
		}
		unmatched++
		if dropped != randomDrop {
			t.Fatalf("packet %d (%d->%d) dropped = %v, want the random drop's %v",
				i, pkt.Src, pkt.Dst, dropped, randomDrop)
		}
		if dropped {
			randomDrops++
		}
	}
	if matched != n/2 {
		t.Fatalf("%d packets matched the blackhole, want %d", matched, n/2)
	}
	// The random dropper drew for EVERY packet, including the ones the
	// blackhole also claimed, and dropped roughly half of the rest.
	if got, want := env.Rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("run RNG out of step after %d packets: %v, want %v", n, got, want)
	}
	frac := float64(randomDrops) / float64(unmatched)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("random drop fraction = %.3f with co-resident blackhole, want ~0.5", frac)
	}

	// Reverting both restores a healthy switch.
	bh.Revert(env)
	rd.Revert(env)
	if got := sp.DropFnCount(); got != 0 {
		t.Fatalf("DropFnCount = %d after revert, want 0", got)
	}
	if sp.ConsultDropFns(&net.Packet{Src: 0, Dst: 12}) {
		t.Fatal("packet dropped after both injectors reverted")
	}
}

func TestUninstallIsIdempotentAndOrderIndependent(t *testing.T) {
	for _, firstOut := range []string{"a", "b"} {
		env := testEnv(t, 1)
		sp := env.Net.Spines[2]
		a := &chaos.RandomDrop{Spine: 2, Rate: 1}
		b := &chaos.RandomDrop{Spine: 2, Rate: 0}
		a.Apply(env)
		b.Apply(env)
		if got := sp.DropFnCount(); got != 2 {
			t.Fatalf("DropFnCount = %d, want 2", got)
		}
		out, survivor := a, b
		if firstOut == "b" {
			out, survivor = b, a
		}
		out.Revert(env) // the other hook stays
		if got := sp.DropFnCount(); got != 1 {
			t.Fatalf("DropFnCount = %d after reverting %s, want 1", got, firstOut)
		}
		if got, want := sp.ConsultDropFns(&net.Packet{}), survivor.Rate == 1; got != want {
			t.Fatalf("survivor of rate %g dropped = %v, want %v", survivor.Rate, got, want)
		}
		out.Revert(env) // idempotent
		if got := sp.DropFnCount(); got != 1 {
			t.Fatalf("DropFnCount = %d after reverting %s twice, want 1", got, firstOut)
		}
		survivor.Revert(env)
		if got := sp.DropFnCount(); got != 0 {
			t.Fatalf("DropFnCount = %d, want 0", got)
		}
	}
}

func TestDegradeLinks(t *testing.T) {
	env := testEnv(t, 3)
	(&chaos.DegradeFraction{Fraction: 0.25, Bps: 2e9}).Apply(env)
	// 16 fabric links; 25% -> 4 degraded, the rest untouched.
	if got := linksAt(env.Net, 2e9); len(got) != 4 {
		t.Fatalf("links at 2 Gbps: %v, want 4", got)
	}
	if got := linksAt(env.Net, 10e9); len(got) != 12 {
		t.Fatalf("%d links at 10 Gbps, want 12", len(got))
	}
}

func TestDegradeLinksDeterministic(t *testing.T) {
	a, b := testEnv(t, 7), testEnv(t, 7)
	(&chaos.DegradeFraction{Fraction: 0.2, Bps: 2e9}).Apply(a)
	(&chaos.DegradeFraction{Fraction: 0.2, Bps: 2e9}).Apply(b)
	la, lb := linksAt(a.Net, 2e9), linksAt(b.Net, 2e9)
	if len(la) == 0 || !reflect.DeepEqual(la, lb) {
		t.Fatalf("same seed degraded %v, then %v", la, lb)
	}
}

func TestCutLink(t *testing.T) {
	env := testEnv(t, 2)
	(&chaos.Link{Leaf: 1, Spine: 2, Bps: 0}).Apply(env)
	if env.Net.FabricLinkRate(1, 2) != 0 {
		t.Fatal("link not cut")
	}
	if len(env.Net.AvailablePaths(1, 0)) != 3 {
		t.Fatal("path set not updated after cut")
	}
}
