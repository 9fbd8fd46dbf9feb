// Package hermes is a from-scratch reproduction of "Resilient Datacenter
// Load Balancing in the Wild" (SIGCOMM 2017): the Hermes load balancer, the
// baselines it is evaluated against (ECMP, Presto*, DRB, LetFlow, DRILL,
// CONGA, CLOVE-ECN, FlowBender), and the packet-level leaf-spine fabric,
// DCTCP transport, workload generators and failure injectors the evaluation
// needs. The package is a facade: describe an experiment with Config, call
// Run, and read the FCT statistics from Result.
//
//	res, err := hermes.Run(hermes.Config{
//	    Topology: hermes.LargeScaleTopology(),
//	    Scheme:   hermes.SchemeHermes,
//	    Workload: "web-search",
//	    Load:     0.6,
//	    Flows:    2000,
//	    Seed:     1,
//	})
package hermes

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/chaos"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/metrics"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/perf"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/statusd"
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/trace"
	"github.com/hermes-repro/hermes/internal/transport"
	"github.com/hermes-repro/hermes/internal/workload"
)

// Scheme names a load balancing scheme.
type Scheme string

// The schemes of Table 1.
const (
	SchemeECMP       Scheme = "ecmp"
	SchemePresto     Scheme = "presto" // Presto*: packet spraying + reorder buffer
	SchemeDRB        Scheme = "drb"
	SchemeLetFlow    Scheme = "letflow"
	SchemeDRILL      Scheme = "drill"
	SchemeCONGA      Scheme = "conga"
	SchemeCLOVE      Scheme = "clove" // CLOVE-ECN
	SchemeFlowBender Scheme = "flowbender"
	SchemeHermes     Scheme = "hermes"
	// SchemeEdgeFlowlet is the congestion-oblivious CLOVE variant
	// (Edge-Flowlet) the paper also evaluated.
	SchemeEdgeFlowlet Scheme = "edge-flowlet"
	// SchemeHULA is HULA [25], Table 1's programmable-switch scheme.
	SchemeHULA Scheme = "hula"
	// SchemeMPTCP is multipath TCP [31]: k subflows per logical flow over a
	// shared send buffer, hashed independently onto paths and never
	// rerouted. The paper discusses it (§5.1, §7) but could not simulate
	// it; this repository can. See internal/transport/logical.go.
	SchemeMPTCP Scheme = "mptcp"
	// SchemeWCMP is weighted-cost multipath: per-flow capacity-weighted
	// hashing, the static asymmetry-aware strawman (extension).
	SchemeWCMP Scheme = "wcmp"
	// SchemeREPS is recycled entropy packet spraying (extension; the
	// post-Hermes "next decade" spray): senders cache the entropies of
	// packets whose ACKs recently came back clean and respray those,
	// evicting on ECN/retransmit/RTO, with round-robin fresh entropies as
	// the fallback. See internal/lb/reps.go.
	SchemeREPS Scheme = "reps"
	// SchemeRepFlow is flow replication (extension): short flows (below
	// Config.RepFlowThresholdBytes) run as two independently ECMP-hashed
	// copies; the first to finish wins and the loser is cancelled. See
	// internal/transport/logical.go.
	SchemeRepFlow Scheme = "repflow"
)

// Schemes lists every supported scheme.
func Schemes() []Scheme {
	return []Scheme{
		SchemeECMP, SchemeWCMP, SchemePresto, SchemeDRB, SchemeLetFlow,
		SchemeDRILL, SchemeCONGA, SchemeCLOVE, SchemeEdgeFlowlet, SchemeHULA,
		SchemeFlowBender, SchemeMPTCP, SchemeREPS, SchemeRepFlow, SchemeHermes,
	}
}

// knownScheme rejects a scheme Schemes does not list.
func knownScheme(s Scheme) error {
	for _, k := range Schemes() {
		if k == s {
			return nil
		}
	}
	return fmt.Errorf("hermes: unknown scheme %q", s)
}

// Topology describes a leaf-spine fabric.
type Topology struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	HostRateBps   int64
	FabricRateBps int64

	HostDelayNs   int64
	FabricDelayNs int64

	// QueueFactor sizes port buffers as a multiple of the ECN threshold
	// (0 = default 5x). Use 2-3x to model shallow-buffer switches.
	QueueFactor int

	// CablesPerLink is the number of parallel physical cables per
	// leaf-spine pair (0/1 = one). Each cable is a distinct XPath path.
	CablesPerLink int
}

// TestbedTopology mirrors the paper's hardware testbed (Fig 8a): two racks
// of six servers, two spines, all links 1 Gbps with TWO parallel cables per
// leaf-spine pair — 6 Gbps down vs 4 Gbps up per leaf, the paper's 3:2
// oversubscription — and ~100 us base RTT. Each cable is a distinct path
// (4 paths between the racks), so cutting one cable leaves 3 of 4 paths and
// 75% of the bisection, exactly Fig 8b.
func TestbedTopology() Topology {
	return Topology{
		Leaves: 2, Spines: 2, HostsPerLeaf: 6,
		HostRateBps: 1_000_000_000, FabricRateBps: 1_000_000_000,
		CablesPerLink: 2,
		HostDelayNs:   5_000, FabricDelayNs: 5_000,
	}
}

// LargeScaleTopology mirrors the paper's simulation baseline (§5.3.1): an
// 8x8 leaf-spine with 128 hosts, 10 Gbps links everywhere and a 2:1 leaf
// oversubscription.
func LargeScaleTopology() Topology {
	return Topology{
		Leaves: 8, Spines: 8, HostsPerLeaf: 16,
		HostRateBps: 10_000_000_000, FabricRateBps: 10_000_000_000,
		HostDelayNs: 2_000, FabricDelayNs: 2_000,
	}
}

// SmallTopology is LargeScaleTopology reduced in proportion: a 4x4
// leaf-spine with 32 hosts at 10 Gbps, keeping the 2:1 oversubscription.
// It is hermes-bench's fabric without -full.
func SmallTopology() Topology {
	return Topology{
		Leaves: 4, Spines: 4, HostsPerLeaf: 8,
		HostRateBps: 10_000_000_000, FabricRateBps: 10_000_000_000,
		HostDelayNs: 2_000, FabricDelayNs: 2_000,
	}
}

// ChaosTopology is the resilience matrix's fabric: a 2x2 leaf-spine with
// 1 Gbps hosts and 2 Gbps fabric links, where a spine blackhole is half of
// ECMP's hash space and part of every Presto* spray, and a whole matrix
// runs in seconds.
func ChaosTopology() Topology {
	return Topology{
		Leaves: 2, Spines: 2, HostsPerLeaf: 4,
		HostRateBps: 1_000_000_000, FabricRateBps: 2_000_000_000,
		HostDelayNs: 2_000, FabricDelayNs: 2_000,
	}
}

// FailureKind selects a §5.3.3 switch malfunction or topology asymmetry.
type FailureKind string

// Supported failure injections.
const (
	FailureNone       FailureKind = ""
	FailureRandomDrop FailureKind = "random-drop"
	FailureBlackhole  FailureKind = "blackhole"
	// FailureSpineBlackhole silently drops everything transiting one spine
	// while its links stay up — routing still advertises the paths, so
	// hash-based schemes keep sending into the hole and spray-based schemes
	// lose packets on every flow. The worst §5.3.3-class malfunction.
	FailureSpineBlackhole FailureKind = "spine-blackhole"
	FailureDegrade        FailureKind = "degrade"
	FailureCutLink        FailureKind = "cut-link"
	// FailureCutCable removes a single physical cable of a multi-cable
	// leaf-spine link (the paper's testbed Fig 8b cut).
	FailureCutCable FailureKind = "cut-cable"
	// FailureDegradeLink re-rates each cable of the CutLeaf-CutSpine link
	// to DegradedBps, by default half the cable rate: on the testbed's two
	// 1 Gbps cables the link drops from 2 Gbps to 1 Gbps, the capacity the
	// paper's Fig 8b cable cut leaves it.
	FailureDegradeLink FailureKind = "degrade-link"
	// FailureFlap periodically degrades and restores the CutLeaf/CutSpine
	// link (gray-failure extension). It is sugar for a repeating scenario
	// event: Run lowers it onto the chaos engine's Every/Duration machinery.
	FailureFlap FailureKind = "flap"
	// FailureDegradeSpine re-rates every link of one spine — the §2.1
	// "heterogeneous devices" asymmetry (e.g. one older slower spine tier).
	FailureDegradeSpine FailureKind = "degrade-spine"
	// FailureSpineDown takes a whole spine switch out of service: all its
	// links cut and everything transiting it dropped. As a static failure
	// it onsets at t=0; inside a Scenario it can onset and clear mid-run.
	FailureSpineDown FailureKind = "spine-down"
	// FailureLeafDown takes a leaf switch down (CutLeaf selects it, -1 =
	// random), isolating its whole rack including intra-rack traffic.
	FailureLeafDown FailureKind = "leaf-down"
)

// FailureSpec configures the injection.
type FailureSpec struct {
	Kind FailureKind

	// Spine selects the malfunctioning core switch; -1 picks one at random.
	Spine int
	// DropRate is the silent random-drop probability (default 0.02).
	DropRate float64
	// SrcLeaf/DstLeaf scope the blackhole's rack pair (default 0 -> last).
	SrcLeaf, DstLeaf int
	// Fraction of leaf-spine links degraded to DegradedBps (degrade).
	Fraction float64
	// DegradedBps is the rate of each cable of a degraded link, at most
	// Topology.FabricRateBps. Zero selects the kind's default, which never
	// adds capacity: a fifth of the cable rate for degrade and degrade-spine
	// (2 Gbps on the paper's 10 Gbps fabric, 200 Mbps on the testbed), half
	// the cable rate for degrade-link, and a cut for flap.
	DegradedBps int64
	// CutLeaf/CutSpine identify the removed link (cut-link), and CutCable
	// the single cable for cut-cable fabrics (-1 or 0 = cable 0).
	CutLeaf, CutSpine, CutCable int
	// FlapPeriodNs/FlapDownNs control the flap cycle (flap kind).
	FlapPeriodNs, FlapDownNs int64
}

// Config describes one experiment run. A field whose zero value selects a
// default rejects a negative value, and ReorderTimeoutNs one below -1.
type Config struct {
	Topology Topology
	Scheme   Scheme

	// Workload is "web-search" or "data-mining".
	Workload string
	// WorkloadFile, when set, loads a custom flow-size CDF from a text file
	// ("<bytes> <cumulative-prob>" per line) instead of Workload.
	WorkloadFile string
	// Load is the offered load as a fraction of bisection bandwidth.
	Load float64
	// Flows is the number of flows to generate.
	Flows int
	// Seed drives all randomness; same seed, same result.
	Seed int64

	// MaxFlowBytes truncates the size distribution (0 = workload default:
	// data-mining is capped at 35 MB to bound simulation cost; see
	// EXPERIMENTS.md). A set cap must exceed the workload's smallest flow
	// size and be at most 2^50; a negative one is rejected.
	MaxFlowBytes int64

	// Protocol is "dctcp" (default) or "reno".
	Protocol string

	// FlowletTimeout overrides the flowlet gap for CONGA/LetFlow/CLOVE
	// (default 150 us).
	FlowletTimeoutNs int64

	// ReorderTimeoutNs sets the receive-side reordering buffer; -1 disables
	// it even for Presto*; 0 means scheme default (Presto* gets 400 us).
	ReorderTimeoutNs int64

	// HermesParams overrides the derived Table 4 defaults when non-nil;
	// it must pass core.Params.Validate, even under another scheme.
	HermesParams *core.Params

	// Failure injects a malfunction or asymmetry.
	Failure FailureSpec

	// Scenario, when non-nil, drives the chaos engine: a declarative
	// timeline of failure events — several at once, mid-run onset and
	// recovery, repeats — deterministic per Seed. Setting it implies
	// TimeSeries (the flight recorder feeds Result.Recovery). Composes
	// with a static Failure, except flap/spine-down/leaf-down kinds,
	// which are themselves scenario sugar. (omitempty keeps reports from
	// scenario-less runs byte-stable.)
	Scenario *Scenario `json:",omitempty"`

	// DrainTimeoutNs bounds how long the run may continue after the last
	// flow arrival before unfinished flows are force-recorded (default 2 s
	// of virtual time).
	DrainTimeoutNs int64

	// MeasureVisibility enables the Table 2 visibility sampler.
	MeasureVisibility bool

	// MPTCPSubflows sets the subflow count for SchemeMPTCP (default 4).
	MPTCPSubflows int

	// RepFlowThresholdBytes is the replicate-below size bound for
	// SchemeRepFlow (0 = transport.DefaultRepFlowThreshold, 100 KB). Flows
	// at or above it run unreplicated. (omitempty keeps reports from other
	// schemes byte-stable.)
	RepFlowThresholdBytes int64 `json:",omitempty"`

	// Trace enables per-flow trace recording: load balancing events and
	// path-residency spans (placements, path changes, retransmits, timeouts,
	// ECN marks, drops) on Result.Trace, which writes them as JSONL
	// (WriteJSONL) or Perfetto trace-event JSON (WritePerfetto). Safe under
	// RunConfigs — each run owns its recorder. (omitempty keeps reports
	// from untraced runs byte-stable.)
	Trace bool `json:",omitempty"`

	// Checks enables the simulation invariant harness: the engine verifies
	// monotone virtual time, stable same-instant event ordering and that no
	// cancelled or recycled event ever fires, and the run ends with a
	// fabric-wide packet-conservation audit (injected = delivered + dropped
	// + in flight). Run returns an error if any invariant is violated. Off
	// by default; the overhead is a few percent of event throughput.
	// (omitempty keeps reports from runs without the harness byte-stable.)
	Checks bool `json:",omitempty"`

	// Telemetry enables the report sweep over every declared metric, the
	// push histograms and the Hermes decision audit log (Result.Telemetry).
	// Off by default; the instrumented hot paths then cost one nil check
	// each.
	Telemetry bool
	// TelemetryIntervalNs is the sweep period in virtual nanoseconds
	// (0 = 1 ms).
	TelemetryIntervalNs int64

	// TimeSeries enables the flight recorder: bounded per-port queue/util
	// series, Hermes path-state occupancy and transition log, and transport
	// aggregates on Result.TimeSeries, which writes them as JSONL
	// (WriteJSONL) or CSV (WriteCSV). Safe under RunConfigs — each run owns
	// its recorder. (omitempty keeps reports byte-stable.)
	TimeSeries bool `json:",omitempty"`
	// TimeSeriesIntervalNs is the sampling period in virtual nanoseconds
	// (0 = timeseries.DefaultInterval, 100 us).
	TimeSeriesIntervalNs int64
	// TimeSeriesCap bounds the retained samples per series; older samples
	// fall off a ring (0 = timeseries.DefaultCap, or scenarioDefaultCap
	// when a Scenario is set — recovery metrics need the onset windows to
	// survive eviction).
	TimeSeriesCap int

	// Alerts, when non-nil, arms the SLO watchdog: declarative rules
	// (builtin pack and/or user rules) evaluated over the flight recorder
	// at every sample boundary, with a pending -> firing -> resolved
	// lifecycle reported on Result.Alerts. Implies TimeSeries. Evaluation
	// rides the virtual clock, so alert logs are byte-identical under
	// RunConfigs. (omitempty keeps reports from unwatched runs
	// byte-stable.)
	Alerts *AlertsConfig `json:",omitempty"`

	// Status, when non-nil, attaches this run to a live status tracker:
	// progress, live metric snapshots and the flight recorder become
	// visible on the tracker's HTTP status plane (ServeStatus) while the
	// run executes. Publishing happens only at scheduling-slice boundaries
	// and run end — never on the per-packet hot path — and is purely
	// observational: results are byte-identical with or without it. Nil
	// falls back to the SetDefaultStatus process default, else disabled.
	Status *Status `json:"-"`

	// Perf, when non-nil, enables the performance observatory for this run:
	// the engine self-profiles event fires by kind (wall-time attribution
	// sampled 1-in-SampleEvery), a wall-clock sampler watches the Go runtime
	// (heap, GC, goroutines, CPU), and the run's Result carries a Perf block.
	// Like every observability layer it is off by default and costs one nil
	// check per event when disabled; when enabled it never changes
	// simulation behavior or report bytes — perf data is wall-clock and
	// machine-dependent, so it lives only in Result.Perf, the status
	// tracker's perf aggregate (Status.PerfSummary) and the perf ledger,
	// never in deterministic artifacts. Like Status,
	// the field is excluded from serialized configs (and hence from report
	// config hashes): profiling on vs off must not change artifact bytes.
	Perf *PerfOptions `json:"-"`

	// Checkpoint, when non-nil, arms the checkpoint plane: the run writes
	// versioned hermes-ckpt/v1 snapshot files (see internal/checkpoint) into
	// Dir at the configured interval and/or explicit instants, and — when the
	// run is interrupted through its context — at the interruption instant.
	// Checkpoint instants become scheduling-slice boundaries, so a
	// checkpointed config must keep checkpointing on restore for
	// byte-identical reports; Restore preserves it automatically.
	Checkpoint *CheckpointConfig `json:",omitempty"`

	// statusLabel names this run on the status plane. RunConfigs sets it
	// from its batch's runLabels; Run labels a batch of one when empty.
	statusLabel string

	// ctx, when set by the worker pool, lets a batch interrupt this run at
	// its next scheduling slice. Unexported: single runs pick up the
	// SetDefaultRunContext process default.
	ctx context.Context
}

// scenarioDefaultCap is the flight-recorder ring cap scenario runs default
// to: ~3.3 s of samples at the stock 100 us interval, vs ~0.8 s from
// timeseries.DefaultCap. Recovery scoring reads pre-onset baselines out of
// the ring, so eviction of the onset window would silently zero the dip
// metrics and misattribute reroutes.
const scenarioDefaultCap = 32768

// Result carries everything a run measured.
type Result struct {
	Scheme   Scheme
	Workload string
	Load     float64

	FCT metrics.Report

	// SimDuration is the virtual time the run covered.
	SimDuration sim.Time
	// Events is the number of simulation events executed plus the sample
	// instants the run's observers took (the report sweep, the flight ring,
	// the visibility sampler). Samples are engine observers, not events, but
	// each was an event before, so the count keeps its meaning.
	Events uint64

	// VisibilitySwitchPair / VisibilityHostPair reproduce Table 2.
	VisibilitySwitchPair float64
	VisibilityHostPair   float64

	// Hermes telemetry (zero for other schemes).
	Reroutes        uint64
	TimeoutReroutes uint64
	FailureReroutes uint64
	ProbesSent      uint64
	ProbeBytes      uint64
	// ProbeOverhead is probe bytes/s over one access link's capacity.
	ProbeOverhead float64

	// REPS telemetry (zero for other schemes): sprays served from the
	// recycled-entropy cache vs fresh round-robin entropies, and cache
	// evictions triggered by ECN/retransmit/RTO signals.
	RecycledSprays   uint64 `json:",omitempty"`
	FreshSprays      uint64 `json:",omitempty"`
	EntropyEvictions uint64 `json:",omitempty"`

	// RepFlow telemetry (zero for other schemes): logical flows replicated,
	// races won by the replica copy, and payload bytes the cancelled losers
	// had injected (the scheme's bandwidth overhead).
	ReplicatedFlows uint64 `json:",omitempty"`
	ReplicaWins     uint64 `json:",omitempty"`
	RedundantBytes  uint64 `json:",omitempty"`

	// TraceCounts summarizes recorded trace events by kind (only when
	// Config.Trace was set).
	TraceCounts map[string]int

	// GoodputGbps is the aggregate application-level goodput of finished
	// flows over the run, and FabricUtilization that goodput relative to
	// the intact bisection capacity.
	GoodputGbps       float64
	FabricUtilization float64

	// Telemetry holds the report sweep, histograms and audit log when
	// Config.Telemetry was set (nil otherwise). Use BuildReport to turn it
	// into a serializable Report.
	Telemetry *telemetry.RunData `json:"-"`

	// Trace holds the full trace recorder — events, path-residency spans,
	// per-flow per-hop delay aggregates and Hermes verdicts — when tracing
	// was enabled (nil otherwise).
	Trace *trace.Recorder `json:"-"`

	// TimeSeries holds the flight recorder — per-port queue/utilization
	// series, Hermes path census and transition log, transport aggregates —
	// when Config.TimeSeries, a Scenario or Alerts armed it.
	TimeSeries *timeseries.Recorder `json:"-"`

	// Recovery scores every scenario failure activation — time-to-detect,
	// time-to-reroute, goodput-dip depth/duration/integral, post-clear
	// re-convergence — when Config.Scenario was set (nil otherwise).
	Recovery *Recovery `json:",omitempty"`

	// Alerts is the SLO watchdog's end-of-run report — every alert
	// episode with its lifecycle instants, cause and severity, plus the
	// lifecycle event log — when Config.Alerts was set (nil otherwise).
	Alerts *AlertReport `json:",omitempty"`

	// Perf is the run's performance-observatory block — events fired by
	// kind, sim-vs-wall ratio, queue peak, peak heap, GC time share — when
	// Config.Perf was set (nil otherwise). Wall-clock data: excluded from
	// BuildReport and every deterministic artifact.
	Perf *PerfReport `json:",omitempty"`

	// Checkpoints lists every scheduled checkpoint the run wrote, in
	// virtual-time order, when Config.Checkpoint was set. Interrupt
	// checkpoints travel on the InterruptedError instead. (omitempty keeps
	// reports from uncheckpointed runs byte-stable.)
	Checkpoints []CheckpointInfo `json:",omitempty"`
}

// Recovery and EventRecovery re-export the chaos engine's per-run resilience
// report so callers can name the types without reaching into internal/.
type (
	Recovery      = chaos.Recovery
	EventRecovery = chaos.EventRecovery
)

func (t Topology) toNet() net.Config {
	return net.Config{
		Leaves:        t.Leaves,
		Spines:        t.Spines,
		HostsPerLeaf:  t.HostsPerLeaf,
		HostRateBps:   t.HostRateBps,
		FabricRateBps: t.FabricRateBps,
		HostDelay:     t.HostDelayNs,
		FabricDelay:   t.FabricDelayNs,
		QueueFactor:   t.QueueFactor,
		CablesPerLink: t.CablesPerLink,
	}
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) (*Result, error) { return runWith(cfg, nil) }

// run carries one experiment's live state through setup, the scheduling
// loop and result assembly. Structuring the run this way is what lets the
// checkpoint plane (checkpoint.go) capture, verify and fork it: every
// component a snapshot must observe hangs off one value.
type run struct {
	cfg Config
	// What validate lowered the config to: the workload's flow sizes, the
	// transport options, the static failure's injector (nil for none or a
	// timed kind), the scenario with any timed static failure, and a fork's
	// graft, installed at the fork instant.
	dist     *workload.CDF
	opts     transport.Options
	static   chaos.Injector
	scenario *chaos.Scenario
	graft    *chaos.Scenario

	st       *Status
	sh       *statusd.RunHandle
	runLabel string

	eng *sim.Engine
	rng *sim.RNG
	nw  *net.Network
	tr  *transport.Transport
	gen *workload.Generator
	w   *wiring

	rd        *telemetry.RunData
	flight    *timeseries.Recorder
	watchdog  *alert.Evaluator
	tracer    *trace.Recorder
	delayAcct *net.DelayAccount
	vis       *timeseries.Recorder
	runner    *chaos.Runner

	prof          *sim.Profile
	sampler       *perf.RuntimeSampler
	perfWallStart time.Time

	rec           *metrics.FCTRecorder
	baseBisection int64
	baseRTT       sim.Time
	hostRate      int64

	deliveredBytes int64
	flowsDone      int64
	lastArrival    sim.Time

	ckpt   *ckptPlan
	replay *replayPlan
}

// runWith executes one experiment, optionally replaying it up to a restored
// checkpoint first. Run, Restore and Fork all funnel through here.
func runWith(cfg Config, rp *replayPlan) (res *Result, err error) {
	r := &run{cfg: cfg, replay: rp}
	if err := r.validate(); err != nil {
		return nil, err
	}

	// Status publishing is observational only: the handle receives progress
	// at slice boundaries and the final summary, and a failed run (any error
	// from here on) is retired as such.
	r.st = statusFor(&r.cfg)
	r.runLabel = r.cfg.statusLabel
	if r.runLabel == "" {
		r.runLabel = RunLabel(r.cfg)
	}
	if r.st != nil {
		r.sh = r.st.StartRun(r.runLabel, r.cfg.Flows)
		defer func() {
			if err != nil {
				r.sh.Fail(err)
			}
		}()
	}

	err = r.setup()
	if r.sampler != nil {
		// The deferred Stop is idempotent and covers every error return.
		defer r.sampler.Stop()
	}
	if err != nil {
		return nil, err
	}
	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.finish()
}

// validate is the one check of a Config, made before any engine, fabric,
// recorder or file exists. It rejects every invalid field; resolves the flow
// sizes and transport options; lowers the static failure, the scenario and a
// fork's graft to chaos injectors; and plans the checkpoints. It mutates
// only r, and setup builds from what it produced.
func (r *run) validate() error {
	cfg := &r.cfg
	if cfg.Flows <= 0 {
		return fmt.Errorf("hermes: Flows must be positive")
	}
	if !(cfg.Load > 0 && cfg.Load <= 1.5) { // NaN too
		return fmt.Errorf("hermes: Load %v out of range (0, 1.5]", cfg.Load)
	}
	var perf PerfOptions
	if cfg.Perf != nil {
		perf = *cfg.Perf
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MaxFlowBytes", cfg.MaxFlowBytes}, {"MPTCPSubflows", int64(cfg.MPTCPSubflows)},
		{"RepFlowThresholdBytes", cfg.RepFlowThresholdBytes}, {"DrainTimeoutNs", cfg.DrainTimeoutNs},
		{"FlowletTimeoutNs", cfg.FlowletTimeoutNs}, {"TelemetryIntervalNs", cfg.TelemetryIntervalNs},
		{"TimeSeriesIntervalNs", cfg.TimeSeriesIntervalNs}, {"TimeSeriesCap", int64(cfg.TimeSeriesCap)},
		{"Perf.SampleEvery", int64(perf.SampleEvery)},
	} {
		if f.v < 0 {
			return fmt.Errorf("hermes: %s %d is negative", f.name, f.v)
		}
	}
	if cfg.ReorderTimeoutNs < -1 {
		return fmt.Errorf("hermes: ReorderTimeoutNs %d is below -1 (off)", cfg.ReorderTimeoutNs)
	}
	if err := cfg.Topology.toNet().Validate(); err != nil {
		return fmt.Errorf("hermes: %w", err)
	}
	if err := knownScheme(cfg.Scheme); err != nil {
		return err
	}
	if p := cfg.HermesParams; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("hermes: HermesParams: %w", err)
		}
	}
	r.opts = transport.DefaultOptions()
	switch cfg.Protocol {
	case "", "dctcp":
	case "reno":
		r.opts.Protocol = transport.Reno
	case "timely":
		r.opts.Protocol = transport.Timely
	default:
		return fmt.Errorf("hermes: unknown protocol %q", cfg.Protocol)
	}
	switch {
	case cfg.ReorderTimeoutNs > 0:
		r.opts.ReorderTimeout = cfg.ReorderTimeoutNs
	case cfg.ReorderTimeoutNs == 0 && cfg.Scheme == SchemePresto:
		r.opts.ReorderTimeout = 400 * sim.Microsecond
	}
	setCarriage(&r.opts, cfg)
	var err error
	if cfg.WorkloadFile != "" {
		r.dist, err = workload.LoadCDFFile(cfg.WorkloadFile)
	} else {
		r.dist, err = workload.ByName(cfg.Workload)
	}
	if err != nil {
		return err
	}
	maxBytes := cfg.MaxFlowBytes
	if maxBytes == 0 && r.dist == workload.DataMining {
		maxBytes = 35_000_000 // documented tail truncation
	}
	if maxBytes > 0 {
		trunc, err := r.dist.Truncate(maxBytes)
		if err != nil {
			return fmt.Errorf("hermes: MaxFlowBytes %d cannot cap a workload whose smallest flow is %d B: %w",
				maxBytes, r.dist.Points()[0].Bytes, err)
		}
		r.dist = trunc
	}
	if ac := cfg.Alerts; ac != nil {
		if !ac.Builtin && len(ac.Rules) == 0 {
			return fmt.Errorf("hermes: Config.Alerts set but no rules armed (set Builtin or Rules)")
		}
		if err := ValidateAlertRules(ac.Rules); err != nil {
			return fmt.Errorf("hermes: %w", err)
		}
	}

	// Timed failure kinds are sugar for a scenario, so the chaos runner is
	// the one code path for everything time-varying; any other static
	// failure is one injector.
	sugar, err := scenarioSugar(cfg.Failure)
	switch {
	case err != nil:
	case sugar != nil && cfg.Scenario != nil:
		return fmt.Errorf("hermes: Failure kind %q is scenario sugar and cannot combine with Config.Scenario; add it as a scenario event instead", cfg.Failure.Kind)
	case sugar != nil:
		r.scenario, err = sugar.toChaos(cfg.Topology)
	default:
		r.static, err = injectorFor(cfg.Failure, cfg.Topology)
	}
	if err != nil {
		return fmt.Errorf("hermes: invalid Failure: %w", err)
	}
	if cfg.Scenario != nil {
		if r.scenario, err = cfg.Scenario.toChaos(cfg.Topology); err != nil {
			return fmt.Errorf("hermes: %w", err)
		}
	}
	if rp := r.replay; rp != nil && rp.fork != nil && rp.fork.Scenario != nil {
		graft := rp.fork.Scenario
		if r.scenario != nil {
			return fmt.Errorf("hermes: Fork cannot graft a scenario onto a run that already has one")
		}
		for i, ev := range graft.Events {
			if ev.AtNs <= int64(rp.to) {
				return fmt.Errorf("hermes: fork scenario event %d onsets at t=%dns, not strictly after the checkpoint instant t=%dns",
					i, ev.AtNs, int64(rp.to))
			}
		}
		if r.graft, err = graft.toChaos(cfg.Topology); err != nil {
			return fmt.Errorf("hermes: fork: %w", err)
		}
	}

	if cfg.ctx == nil {
		cfg.ctx = defaultRunContext()
	}
	if cfg.Checkpoint != nil {
		if r.ckpt, err = newCkptPlan(cfg); err != nil {
			return err
		}
	}
	return nil
}

// applyStatic applies one phase of the static Config.Failure (nil: none).
func (r *run) applyStatic(inj chaos.Injector) {
	if inj != nil {
		inj.Apply(chaos.Env{Net: r.nw, Rng: r.rng})
	}
}

// setup builds the whole simulation — fabric, scheme, transport, workload,
// observability — without running any virtual time.
func (r *run) setup() error {
	cfg := &r.cfg
	if r.ckpt != nil {
		if err := os.MkdirAll(cfg.Checkpoint.Dir, 0o755); err != nil {
			return fmt.Errorf("hermes: checkpoint dir: %w", err)
		}
	}
	eng := sim.NewEngine()
	r.eng = eng
	if cfg.Checks {
		eng.EnableChecks()
	}
	// Perf observatory: engine self-profiling plus a wall-clock Go runtime
	// sampler for the duration of the run (runWith defers the Stop).
	if cfg.Perf != nil {
		r.prof = eng.EnableProfile(cfg.Perf.SampleEvery)
		r.sampler = perf.StartRuntimeSampler(perf.RuntimeInterval)
		r.perfWallStart = time.Now()
	}
	r.rng = sim.NewRNG(cfg.Seed)
	var err error
	r.nw, err = net.NewLeafSpine(eng, r.rng, cfg.Topology.toNet())
	if err != nil {
		return err
	}
	nw := r.nw

	// Record the intact bisection first: the paper normalizes offered load
	// to the healthy fabric even in asymmetric and failure runs.
	r.baseBisection = nw.BisectionBps()

	// A static failure is one chaos injector, applied before traffic and
	// never reverted. Fabric-shaping kinds go in before the balancers are
	// built, so path sets and weights see the final fabric; switch
	// malfunctions go in after the transport, so a random spine draws from
	// the run RNG where it always has.
	fabricFailure, switchFailure := r.static, chaos.Injector(nil)
	switch cfg.Failure.Kind {
	case FailureRandomDrop, FailureBlackhole, FailureSpineBlackhole:
		fabricFailure, switchFailure = nil, r.static
	}
	r.applyStatic(fabricFailure)

	if cfg.Telemetry {
		r.rd = telemetry.NewRunData(eng, sim.Time(cfg.TelemetryIntervalNs))
		// /metrics reads the rows this run's report sweep seals.
		r.sh.SetRunData(r.rd)
	}

	// A scenario a Fork grafts on is scored like one set from the start.
	scored := r.scenario != nil || r.graft != nil
	if cfg.TimeSeries || scored || cfg.Alerts != nil {
		tsCap := cfg.TimeSeriesCap
		if tsCap == 0 && scored {
			// Recovery metrics need the pre-onset baseline and the reroute
			// counters' pre-onset base to survive ring eviction; the stock
			// cap covers only ~0.8 s of samples. Runs longer than ~3 s
			// should still set TimeSeriesCap (or a coarser interval).
			tsCap = scenarioDefaultCap
		}
		r.flight = timeseries.NewRecorder(eng,
			sim.Time(cfg.TimeSeriesIntervalNs), tsCap)
		// Expose the live recording on the status plane (/api/series).
		r.st.AttachFlight(r.flight, r.runLabel)
	}
	nw.DeclareMetrics(r.plane())
	if cfg.Perf != nil && r.flight != nil {
		// Deterministic engine-health series (sim state sampled on the sim
		// clock — identical across reruns, unlike the wall-clock runtime
		// sampler, which never touches the recorder).
		r.flight.Register("perf.engine.pending", func() float64 { return float64(eng.Pending()) })
		r.flight.Register("perf.engine.fired", func() float64 { return float64(eng.Fired()) })
	}

	if cfg.Trace {
		tracer := trace.NewRecorder(r.audit())
		r.tracer = tracer
		r.delayAcct = nw.EnableDelayAccount()
		nw.SetTraceHooks(
			func(p *net.Packet) {
				if p.Kind == net.Data {
					tracer.NoteDrop(eng.Now(), p.Flow, p.Path)
				}
			},
			func(p *net.Packet) {
				if p.Kind == net.Data {
					tracer.NoteMark(eng.Now(), p.Flow, p.Path)
				}
			},
		)
	}
	r.w = r.wireScheme(*cfg)
	r.tr = transport.New(nw, r.opts, r.w.balancerFor)
	r.tr.DeclareMetrics(r.plane())
	if r.opts.ReplicateBelow > 0 {
		r.tr.DeclareRepFlowMetrics(r.plane())
	}
	r.w.afterTransport(nw, r.rng)

	// SLO watchdog: rules evaluate on the recorder's sample boundaries.
	// Wildcard rules re-resolve lazily, so probes registered later (scheme
	// census series) are still picked up.
	if cfg.Alerts != nil {
		r.watchdog, err = alert.New(r.flight, cfg.Alerts.rules(r.flight, nw))
		if err != nil {
			return fmt.Errorf("hermes: %w", err)
		}
		// Expose live alerts on the status plane (/api/alerts, ALERTS).
		r.st.AttachAlerts(r.watchdog, r.runLabel)
	}

	r.applyStatic(switchFailure)

	// Scenario events ride the engine timeline: inject/clear fire at their
	// scheduled virtual times, interleaved with traffic.
	if r.scenario != nil {
		r.installScenario(r.scenario)
	}

	r.rec = &metrics.FCTRecorder{}
	// Slowdown baseline: one base RTT plus line-rate serialization on the
	// access link — the conventional "ideal FCT" model for this literature.
	r.baseRTT = nw.ApproxBaseRTT()
	r.hostRate = nw.Cfg.HostRateBps
	baseRTT, hostRate := r.baseRTT, r.hostRate
	r.rec.IdealFCT = func(size int64) sim.Time {
		return baseRTT + sim.Time(size*8*sim.Second/hostRate)
	}
	r.tr.OnFlowDone = func(f *transport.Flow) {
		r.deliveredBytes += f.Size
		r.flowsDone++
		r.rec.Record(f.Size, f.FCT())
	}

	r.gen = &workload.Generator{
		Net: nw, Tr: r.tr, Rng: r.rng, Dist: r.dist,
		Load: cfg.Load, MaxFlows: cfg.Flows,
		BaseBisectionBps: r.baseBisection,
	}
	r.gen.Start()
	if r.rd != nil {
		r.rd.Sweep.Start()
	}
	r.flight.Start()

	if cfg.MeasureVisibility {
		r.vis = metrics.VisibilityRecorder(r.tr, sim.Millisecond)
	}
	return nil
}

// events counts the engine events fired and the observer instants run. A
// sample instant was an engine event before observers left the queue, so
// the count means what it always has.
func (r *run) events() uint64 { return r.eng.Fired() + r.eng.Observed() }

// plane is the run's metric plane: every armed sink.
func (r *run) plane() telemetry.Plane {
	return telemetry.Plane{Run: r.rd, Flight: r.flight}
}

// audit is the decision audit log, nil with telemetry off.
func (r *run) audit() *telemetry.AuditLog {
	if r.rd == nil {
		return nil
	}
	return r.rd.Audit
}

// wireScheme builds cfg's scheme on the run's fabric, declaring its metrics
// on the run's plane. With tracing on, every balancer it hands out records
// into the trace.
func (r *run) wireScheme(cfg Config) *wiring {
	w := buildScheme(r.nw, r.rng, cfg, r.audit(), r.plane())
	if r.tracer == nil {
		return w
	}
	inner, tracer, eng := w.balancerFor, r.tracer, r.eng
	w.balancerFor = func(h *net.Host) transport.Balancer {
		return trace.Wrap(inner(h), tracer, eng)
	}
	return w
}

// installScenario puts a timeline validate lowered on the engine, with its
// activations stamped into the decision log.
func (r *run) installScenario(sc *chaos.Scenario) {
	r.runner = chaos.NewRunner(chaos.Env{Net: r.nw, Rng: r.rng}, sc)
	r.attachRunnerAudit(r.runner)
	r.runner.Install(r.eng)
	r.scenario = sc
}

// attachRunnerAudit stamps chaos activations into the decision log so
// verdicts can be read against the failures that actually happened. With no
// decision log the hook costs one nil check.
func (r *run) attachRunnerAudit(runner *chaos.Runner) {
	audit := r.audit()
	runner.OnEvent = func(a *chaos.Applied, cleared bool) {
		if audit == nil {
			return
		}
		e := telemetry.AuditEntry{
			At: a.OnsetNs, Kind: telemetry.AuditChaos,
			Reason: telemetry.ReasonInject,
			Host:   -1, SrcLeaf: -1, DstLeaf: -1, FromPath: -1, ToPath: -1,
			Note: a.Name + " " + a.Label,
		}
		if cleared {
			e.At, e.Reason = a.ClearNs, telemetry.ReasonClear
		}
		audit.Add(e)
	}
}

// loop runs the simulation in scheduling slices until all generated flows
// finish or the drain deadline after the last arrival passes. Checkpoint
// instants and the replay horizon become additional slice boundaries, so the
// boundary sequence is a pure function of the config — the property the
// byte-identical resume contract rests on.
func (r *run) loop() error {
	cfg, eng, gen, tr := &r.cfg, r.eng, r.gen, r.tr

	drain := cfg.DrainTimeoutNs
	if drain <= 0 {
		drain = 2 * sim.Second
	}

	const slice = 10 * sim.Millisecond
	for {
		if err := cfg.ctx.Err(); err != nil {
			return r.interrupted(err)
		}
		// Loop-top state is the checkpoint instant for both scheduled and
		// interrupt captures, so replay verification happens here too.
		if r.replay != nil && !r.replay.done && eng.Now() >= r.replay.to {
			if err := r.verifyReplay(); err != nil {
				return err
			}
		}
		replaying := r.replay != nil && !r.replay.done
		if gen.Started() >= cfg.Flows && r.lastArrival == 0 {
			r.lastArrival = eng.Now()
		}
		if !replaying {
			if gen.Started() >= cfg.Flows &&
				(tr.ActiveCount() == 0 || eng.Now() > r.lastArrival+drain) {
				break
			}
			// now > 0 distinguishes a drained run from a pristine one whose
			// t=0 events have not fired yet (an interrupt checkpoint can
			// legitimately capture t=0).
			if eng.Pending() == 0 && eng.Now() > 0 {
				break
			}
		} else if eng.Pending() == 0 {
			return fmt.Errorf("hermes: replay drained at t=%dns before reaching checkpoint instant t=%dns: checkpoint does not belong to this run",
				int64(eng.Now()), int64(r.replay.to))
		}
		horizon := eng.Now() + slice
		if replaying && r.replay.to < horizon {
			horizon = r.replay.to
		}
		if r.ckpt != nil {
			if due, ok := r.ckpt.nextDue(); ok && sim.Time(due) < horizon {
				horizon = sim.Time(due)
			}
		}
		eng.Run(horizon)
		if err := r.fireDueCheckpoints(); err != nil {
			return err
		}
		if r.sh != nil {
			r.sh.Update(int64(eng.Now()), int64(gen.Started()), r.flowsDone, r.events())
		}
	}
	return nil
}

// finish assembles the Result after the loop ends.
func (r *run) finish() (*Result, error) {
	cfg, eng, tr, rec := &r.cfg, r.eng, r.tr, r.rec
	flight, rd, scenario, runner := r.flight, r.rd, r.scenario, r.runner

	// Charge unfinished flows their elapsed time (Fig 17 accounting).
	for _, f := range tr.Unfinished() {
		rec.RecordUnfinished(f.Size, eng.Now()-f.StartAt)
	}

	res := &Result{
		Scheme:      cfg.Scheme,
		Workload:    cfg.Workload,
		Load:        cfg.Load,
		FCT:         rec.Report(),
		SimDuration: eng.Now(),
		Events:      r.events(),
	}
	if eng.Now() > 0 {
		res.GoodputGbps = float64(r.deliveredBytes) * 8 / float64(eng.Now())
		if r.baseBisection > 0 {
			res.FabricUtilization = res.GoodputGbps * 1e9 / float64(r.baseBisection)
		}
	}
	if r.vis != nil {
		r.vis.Stop()
		res.VisibilitySwitchPair = metrics.Summarize(r.vis.Series(metrics.SwitchPairSeries)).Mean
		res.VisibilityHostPair = metrics.Summarize(r.vis.Series(metrics.HostPairSeries)).Mean
	}
	r.w.fillTelemetry(res, eng)
	if cfg.Scheme == SchemeRepFlow {
		res.ReplicatedFlows = tr.RepFlowsStarted
		res.ReplicaWins = tr.ReplicaWins
		res.RedundantBytes = tr.RedundantBytes
	}
	if r.ckpt != nil {
		res.Checkpoints = r.ckpt.infos
	}
	if rd != nil {
		// Stop sweeping and take one final snapshot so every counter's end
		// state appears in the last series sample.
		rd.Sweep.Stop()
		rd.Sweep.Snap()
		res.Telemetry = rd
	}
	if flight != nil {
		// Stop sampling and take one final snapshot so the run's end state
		// always appears, then stamp identity for the exports.
		flight.Stop()
		flight.Snap()
		failureTag := string(cfg.Failure.Kind)
		if scenario != nil && cfg.Failure.Kind == FailureNone {
			failureTag = "scenario:" + scenario.Name
		}
		flight.Meta = timeseries.Meta{
			Schema:        timeseries.Schema,
			Scheme:        string(cfg.Scheme),
			Workload:      cfg.Workload,
			Load:          cfg.Load,
			Seed:          cfg.Seed,
			Failure:       failureTag,
			IntervalNs:    int64(flight.Interval),
			Cap:           flight.Cap,
			SimDurationNs: int64(eng.Now()),
		}
		res.TimeSeries = flight
		if runner != nil {
			if errs := runner.Finish(eng.Now()); len(errs) > 0 {
				return nil, fmt.Errorf("hermes: scenario %q: %w",
					scenario.Name, errors.Join(errs...))
			}
			trafficEnd := int64(r.lastArrival)
			if trafficEnd == 0 {
				trafficEnd = int64(eng.Now())
			}
			// Smooth goodput over ~5 ms of samples so elephant-flow bursts
			// do not end a dip that is still structurally there.
			smooth := int(5 * sim.Millisecond / flight.Interval)
			if smooth < chaos.DefaultSmooth {
				smooth = chaos.DefaultSmooth
			}
			res.Recovery = chaos.Compute(flight, runner.Log, chaos.Options{
				Cables: r.nw.Cables(), TrafficEndNs: trafficEnd, Smooth: smooth,
			})
			res.Recovery.Scenario = scenario.Name
		}
	}
	if r.watchdog != nil {
		res.Alerts = r.watchdog.Report()
	}
	if cfg.Checks {
		if vs := eng.Violations(); len(vs) > 0 {
			return nil, fmt.Errorf("hermes: engine invariants violated (%d): %s", len(vs), vs[0])
		}
		if err := r.nw.CheckConservation(); err != nil {
			return nil, err
		}
	}
	if tracer := r.tracer; tracer != nil {
		tracer.CloseOpenSpans(eng.Now())
		tracer.Meta = trace.Meta{
			Schema:        trace.SchemaV2,
			Scheme:        string(cfg.Scheme),
			Workload:      cfg.Workload,
			Load:          cfg.Load,
			Seed:          cfg.Seed,
			Failure:       string(cfg.Failure.Kind),
			BaseRTTNs:     int64(r.baseRTT),
			HostRateBps:   r.hostRate,
			SimDurationNs: int64(eng.Now()),
		}
		tracer.SetFlowHops(r.delayAcct)
		tracer.Flight = flight
		res.Trace = tracer
		res.TraceCounts = map[string]int{}
		for _, e := range tracer.Events.All() {
			res.TraceCounts[string(e.Kind)]++
		}
		if d := tracer.Events.Dropped(); d > 0 {
			res.TraceCounts["dropped"] = d
		}
	}
	if r.prof != nil {
		stats := r.sampler.Stop()
		res.Perf = perf.BuildRunReport(r.prof, int64(eng.Now()),
			time.Since(r.perfWallStart).Nanoseconds(), stats)
	}
	if sh := r.sh; sh != nil {
		sum := statusd.RunSummary{
			Scheme: string(cfg.Scheme), Workload: cfg.Workload, Load: cfg.Load,
			Seed: cfg.Seed, SimDurationNs: int64(eng.Now()), Events: r.events(),
			Flows: cfg.Flows, Unfinished: res.FCT.Unfinished,
			GoodputGbps: res.GoodputGbps,
			MeanMs:      res.FCT.Overall.MeanMs(), P99Ms: res.FCT.Overall.P99Ms(),
		}
		if scenario != nil {
			sum.Scenario = scenario.Name
		} else if cfg.Failure.Kind != FailureNone {
			sum.Scenario = string(cfg.Failure.Kind)
		}
		sh.Finish(sum, res.Perf)
	}
	return res, nil
}
