package chaos

import (
	"encoding/json"
	"testing"

	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

// spreadBal deterministically spreads flows over paths so several paths
// carry armed RTO timers.
type spreadBal struct {
	transport.BaseBalancer
	npaths int
}

func (spreadBal) Name() string                       { return "spread" }
func (b spreadBal) SelectPath(f *transport.Flow) int { return int(f.ID) % b.npaths }
func (spreadBal) OnSent(*transport.Flow, int, int)   {}
func (spreadBal) OnFlowStart(*transport.Flow)        {}

// richEnv builds a fabric with live transport flows (armed RTO timers), a
// populated Hermes path-state table and warmed REPS entropy caches — the
// state surfaces the PR 5 contract test did not cover.
func richEnv(t *testing.T) (Env, *transport.Transport, *core.Monitor, *lb.Reps) {
	t.Helper()
	env := testEnv(t)
	nw := env.Net

	reps := lb.NewReps(nw, 0)
	tr := transport.New(nw, transport.DefaultOptions(), func(h *net.Host) transport.Balancer {
		return spreadBal{npaths: nw.NPaths()}
	})
	mon := core.NewMonitor(nw, 0, core.DefaultParams(nw))

	// Start cross-rack flows and run briefly: mid-flight flows carry pending
	// RTO timers at absolute virtual deadlines.
	for i := 0; i < 8; i++ {
		src := i % nw.Cfg.HostsPerLeaf                       // leaf 0
		dst := nw.Cfg.HostsPerLeaf*3 + i%nw.Cfg.HostsPerLeaf // leaf 3
		tr.StartFlow(src, dst, 200_000)
	}
	nw.Eng.Run(2 * sim.Millisecond)
	if tr.ActiveCount() == 0 {
		t.Fatal("test traffic drained before the contract check; raise flow sizes")
	}

	// Feed the monitor a deterministic signal mix so its table has EWMA
	// state, window counters and one quarantined path.
	for p := 0; p < nw.NPaths(); p++ {
		mon.OnSent(3, p, net.MSS)
		mon.OnDelivery(3, p, p%2 == 0, sim.Time(50_000+1000*p))
	}
	for i := 0; i < 4; i++ {
		mon.OnTimeout(3, 1)
	}
	mon.OnRetransmit(3, 2)

	// Warm the REPS caches through the balancer's own signal path.
	f := &transport.Flow{SrcLeaf: 0, DstLeaf: 3}
	for p := 0; p < nw.NPaths(); p++ {
		reps.OnAck(f, transport.AckEvent{Path: p})
	}
	reps.SelectPath(f)
	reps.OnTimeout(f, 0)
	return env, tr, mon, reps
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInjectorsPreserveHigherLayerState extends the exact-restore contract
// beyond cable rates and drop hooks: an injector's Apply+Revert must leave
// the transport layer (flows and their RTO timers), the Hermes path-state
// tables and the REPS entropy caches byte-identically untouched — failures
// live in the fabric, never in the schemes' heads.
func TestInjectorsPreserveHigherLayerState(t *testing.T) {
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
		env, tr, mon, reps := richEnv(t)
		beforeNet := mustJSON(t, env.Net.Dump())
		beforeTr := mustJSON(t, tr.Dump())
		beforeMon := mustJSON(t, mon.Dump())
		beforeReps := mustJSON(t, reps.Dump())

		inj.Apply(env)
		inj.Revert(env)

		if got := mustJSON(t, tr.Dump()); got != beforeTr {
			t.Errorf("%s: transport state (flows/RTO timers) changed across Apply/Revert:\n before %s\n after  %s",
				inj.Kind(), beforeTr, got)
		}
		if got := mustJSON(t, mon.Dump()); got != beforeMon {
			t.Errorf("%s: Hermes path-state table changed across Apply/Revert:\n before %s\n after  %s",
				inj.Kind(), beforeMon, got)
		}
		if got := mustJSON(t, reps.Dump()); got != beforeReps {
			t.Errorf("%s: REPS entropy caches changed across Apply/Revert:\n before %s\n after  %s",
				inj.Kind(), beforeReps, got)
		}
		if got := mustJSON(t, env.Net.Dump()); got != beforeNet {
			t.Errorf("%s: fabric dump changed across Apply/Revert:\n before %s\n after  %s",
				inj.Kind(), beforeNet, got)
		}
	}
}
