package hermes

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/core"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// DeriveHermesParams computes the Table 4 recommended Hermes settings for a
// topology, exactly as Run does internally (§3.3: thresholds derived from
// the fabric's base RTT and one-hop delay). Use it as the starting point for
// overrides via Config.HermesParams.
func DeriveHermesParams(topo Topology) (core.Params, error) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(0), topo.toNet())
	if err != nil {
		return core.Params{}, err
	}
	return core.DefaultParams(nw), nil
}

// SeedStats aggregates one metric across seeds.
type SeedStats struct {
	N        int
	Mean     float64
	StdDev   float64
	Min, Max float64
}

// ParallelOptions tunes the RunConfigs worker pool.
type ParallelOptions struct {
	// Workers bounds the number of simulations running concurrently.
	// <=0 uses the process default (SetDefaultWorkers, else GOMAXPROCS).
	Workers int
}

// defaultWorkers is the process-wide worker cap installed by
// SetDefaultWorkers (0 = GOMAXPROCS). hermes-bench plumbs its -workers flag
// here so every sweep in the process honors it.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker-pool size used by
// RunConfigs (and so RunSeeds) when the caller passes no explicit option.
// n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

func (o ParallelOptions) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = int(defaultWorkers.Load())
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, jobs))
}

// RunSeeds executes the same experiment under each seed and returns the
// per-seed results plus aggregate statistics of the overall mean FCT (in
// milliseconds). Use it to separate scheme effects from arrival-pattern
// noise; the paper averages five runs (§5.1). The seeds run as one
// RunConfigs batch under the SetDefaultRunContext process default, so
// results[i] is bit-identical to a sequential Run with seeds[i]. When that
// context is cancelled, RunSeeds returns the finished results (nil for the
// rest), stats over those alone (SeedStats.N says how many) and the error.
func RunSeeds(cfg Config, seeds []int64) ([]*Result, SeedStats, error) {
	if len(seeds) == 0 {
		return nil, SeedStats{}, fmt.Errorf("hermes: RunSeeds needs at least one seed")
	}
	cfgs := make([]Config, len(seeds))
	for i, seed := range seeds {
		cfgs[i] = cfg
		cfgs[i].Seed = seed
	}
	results, err := RunConfigs(defaultRunContext(), cfgs, ParallelOptions{})
	if results == nil {
		return nil, SeedStats{}, err
	}
	var xs []float64
	for _, res := range results {
		if res != nil {
			xs = append(xs, res.FCT.Overall.MeanMs())
		}
	}
	return results, newSeedStats(xs), err
}

// RunConfigs executes one fully specified Config per slot on a bounded
// worker pool; RunSeeds and RunChaosMatrix run their batches through it.
// It plans the batch on the status plane and labels each run there, in
// /metrics and in its errors "<scheme>[/<scenario>]/load <load>/seed
// <seed>", adding "/slot <i>" where two configs of the batch share a label.
//
//   - Determinism: results[i] is bit-identical to a sequential Run of
//     cfgs[i]; worker count and scheduling order cannot leak into results.
//   - Isolation: each worker runs whole simulations, and a run's engine,
//     RNG, report sweep, histograms and audit log are its own, so telemetry
//     from concurrent runs never mixes.
//   - Cancellation: cancelling ctx aborts queued runs and interrupts
//     in-flight ones at their next scheduling slice. The first real failure,
//     by slot order, cancels the rest and returns nil results. A pure
//     cancellation returns the finished results (nil for unfinished slots)
//     with the error, so a partial batch can still be reported. A nil ctx
//     is the SetDefaultRunContext default.
func RunConfigs(ctx context.Context, cfgs []Config, opts ParallelOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = defaultRunContext()
	}
	results := make([]*Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Announce the batch on the status plane(s) the runs will publish to;
	// configs may carry distinct trackers.
	for i := range cfgs {
		statusFor(&cfgs[i]).Plan(1)
	}

	labels := runLabels(cfgs...)
	errs := make([]error, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := opts.workers(len(cfgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cfgs[i]
				c.ctx = ctx
				c.statusLabel = labels[i]
				res, err := Run(c)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", labels[i], err)
					cancel() // fail fast: stop feeding and interrupt peers
					continue
				}
				results[i] = res
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Report the first real failure, by slot order, in preference to the
	// cancellations it triggered in peers. A pure cancellation (Ctrl-C,
	// nothing broke) returns the finished results alongside the error, so
	// callers can flush a partial report.
	var firstCancel error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if firstCancel == nil {
				firstCancel = err
			}
		default:
			return nil, err
		}
	}
	if firstCancel == nil {
		// Cancelled between runs: no worker saw it, but queued runs never ran.
		firstCancel = ctx.Err()
	}
	return results, firstCancel
}

// RunLabel is the label a run of cfg alone carries on the status plane and
// in alert logs: <scheme>[/<scenario>]/load <load>/seed <seed>, the rule
// RunConfigs applies to each config of a batch.
func RunLabel(cfg Config) string { return runLabels(cfg)[0] }

// runLabels is the one label rule, for RunConfigs' batches, the chaos
// alert log and a single Run, which is a batch of one. A batch whose configs
// differ in workload names each run's workload after its scheme and
// scenario, and "/slot <i>" is appended only where two configs of one batch
// still share a label.
func runLabels(cfgs ...Config) []string {
	workloadOf := func(c Config) string {
		if c.WorkloadFile != "" {
			return c.WorkloadFile
		}
		return c.Workload
	}
	mixed := false
	for _, c := range cfgs {
		mixed = mixed || workloadOf(c) != workloadOf(cfgs[0])
	}
	labels := make([]string, len(cfgs))
	n := make(map[string]int, len(cfgs))
	for i, c := range cfgs {
		label := string(c.Scheme)
		if c.Scenario != nil {
			label += "/" + c.Scenario.Name
		}
		if mixed {
			label += "/" + workloadOf(c)
		}
		labels[i] = fmt.Sprintf("%s/load %g/seed %d", label, c.Load, c.Seed)
		n[labels[i]]++
	}
	for i, l := range labels {
		if n[l] > 1 {
			labels[i] = fmt.Sprintf("%s/slot %d", l, i)
		}
	}
	return labels
}

// Seeds returns [base, base+1, ..., base+n-1], a convenience for RunSeeds.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// newSeedStats aggregates one scalar across seeds.
func newSeedStats(xs []float64) SeedStats {
	st := SeedStats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		st.Min, st.Max = 0, 0
		return st
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	st.Mean = sum / float64(len(xs))
	if v := sumSq/float64(len(xs)) - st.Mean*st.Mean; v > 0 {
		st.StdDev = math.Sqrt(v)
	}
	return st
}

// ChaosMatrixConfig configures RunChaosMatrix: the cross product of Schemes,
// Scenarios and Seeds, plus one clean (no-failure) baseline per scheme for
// FCT-inflation scoring. Base supplies everything else (topology, workload,
// load, flows); its Scheme, Seed, Scenario and Failure are overwritten per
// cell.
type ChaosMatrixConfig struct {
	Base      Config
	Schemes   []Scheme
	Scenarios []*Scenario // each needs a distinct non-empty Name
	Seeds     []int64
	Options   ParallelOptions

	// Alerts arms the SLO watchdog on every run of the matrix (clean
	// baselines included, so false-positive rates are visible). Per-cell
	// alert counts and the detect cross-check land on each ChaosCell.
	Alerts *AlertsConfig
	// AlertLog, when set alongside Alerts, receives every run's alert log
	// as JSONL in slot order (scheme-major, then scenario, then seed) —
	// written after the pool completes, so the bytes are identical
	// regardless of worker count.
	AlertLog io.Writer `json:"-"`
}

// ChaosCell aggregates one scheme under one scenario across all seeds.
type ChaosCell struct {
	Scheme   Scheme `json:"scheme"`
	Scenario string `json:"scenario"`

	// Runs is the seed count; DetectedRuns/ReroutedRuns count seeds where at
	// least one activation was detected/rerouted around.
	Runs         int `json:"runs"`
	DetectedRuns int `json:"detected_runs"`
	ReroutedRuns int `json:"rerouted_runs"`
	// MeanDetectMs/MeanRerouteMs average the per-run fastest finite
	// detection/reroute latency over the runs that have one (-1 = none did).
	MeanDetectMs  float64 `json:"mean_detect_ms"`
	MeanRerouteMs float64 `json:"mean_reroute_ms"`

	// WorstDipMs is the per-run worst activation dip duration; DipIntegral
	// sums the goodput deficit over all activations of a run (Gbps·ms).
	WorstDipMs  SeedStats `json:"worst_dip_ms"`
	DipIntegral SeedStats `json:"dip_integral_gbps_ms"`

	// P99Ms is the overall flow-completion p99 across seeds, and
	// P99InflationPct its mean inflation over the scheme's clean baseline.
	P99Ms           SeedStats `json:"p99_ms"`
	P99InflationPct float64   `json:"p99_inflation_pct"`
	GoodputGbps     SeedStats `json:"goodput_gbps"`
	// Unfinished totals flows stranded at run end across seeds.
	Unfinished int `json:"unfinished"`

	// Alert columns, populated only when ChaosMatrixConfig.Alerts armed the
	// watchdog: episodes fired/resolved across seeds, and the consistency
	// cross-check — of AlertDetectTotal detected failure activations,
	// AlertDetectAgree had a gray-path-dwell alert fire within one sample
	// interval of the recovery plane's detection instant.
	AlertsFired      int `json:"alerts_fired,omitempty"`
	AlertsResolved   int `json:"alerts_resolved,omitempty"`
	AlertDetectAgree int `json:"alert_detect_agree,omitempty"`
	AlertDetectTotal int `json:"alert_detect_total,omitempty"`
}

// SchemeScore is one row of the matrix ranking: Score is the mean over
// scenarios of three equally-weighted [0,1]-normalized penalties — detection
// latency (undetected = 1), dip integral, and p99 inflation. Lower is better.
type SchemeScore struct {
	Scheme              Scheme  `json:"scheme"`
	Score               float64 `json:"score"`
	MeanDetectMs        float64 `json:"mean_detect_ms"`
	MeanWorstDipMs      float64 `json:"mean_worst_dip_ms"`
	MeanP99InflationPct float64 `json:"mean_p99_inflation_pct"`
}

// ChaosMatrix is the scheme x failure resilience report.
type ChaosMatrix struct {
	// Manifest records build/VCS provenance when the producer attached one
	// (hermes-chaos does; RunChaosMatrix leaves it nil so the matrix stays a
	// pure function of its config across machines and commits).
	Manifest *Manifest `json:"manifest,omitempty"`

	Schemes   []Scheme `json:"schemes"`
	Scenarios []string `json:"scenarios"`
	Seeds     []int64  `json:"seeds"`

	// AlertsArmed records whether the SLO watchdog ran on every cell (the
	// alert columns of Cells are meaningful only when true).
	AlertsArmed bool `json:"alerts_armed,omitempty"`

	// Partial marks a matrix aggregated from an interrupted sweep: cells
	// cover only the runs that finished before cancellation (Runs below the
	// seed count, possibly zero), so cross-cell comparisons are suspect.
	Partial bool `json:"partial,omitempty"`

	// BaselineP99Ms is each scheme's clean-run p99 (mean over seeds), the
	// denominator of every inflation figure.
	BaselineP99Ms map[Scheme]float64 `json:"baseline_p99_ms"`
	// Cells is scenario-major: all schemes of Scenarios[0] first.
	Cells   []ChaosCell   `json:"cells"`
	Ranking []SchemeScore `json:"ranking"`
}

// Cell returns the aggregate for (scheme, scenario), or nil.
func (m *ChaosMatrix) Cell(scheme Scheme, scenario string) *ChaosCell {
	for i := range m.Cells {
		if m.Cells[i].Scheme == scheme && m.Cells[i].Scenario == scenario {
			return &m.Cells[i]
		}
	}
	return nil
}

// RunChaosMatrix sweeps schemes x scenarios x seeds — plus one clean baseline
// per scheme — on a single worker pool, and aggregates each cell's recovery
// metrics (detection and reroute latency, goodput-dip depth and cost) and
// FCT inflation over the clean baseline. Deterministic: same config, same
// matrix, regardless of worker count. When the context is cancelled mid-sweep
// it returns the matrix aggregated from the completed runs, marked Partial,
// together with the cancellation error.
func RunChaosMatrix(ctx context.Context, mc ChaosMatrixConfig) (*ChaosMatrix, error) {
	if len(mc.Schemes) == 0 || len(mc.Scenarios) == 0 || len(mc.Seeds) == 0 {
		return nil, fmt.Errorf("hermes: chaos matrix needs schemes, scenarios and seeds (have %d/%d/%d)",
			len(mc.Schemes), len(mc.Scenarios), len(mc.Seeds))
	}
	names := make(map[string]bool, len(mc.Scenarios))
	for _, sc := range mc.Scenarios {
		if sc == nil || sc.Name == "" {
			return nil, fmt.Errorf("hermes: chaos matrix scenarios need non-empty names")
		}
		if names[sc.Name] {
			return nil, fmt.Errorf("hermes: duplicate scenario name %q in chaos matrix", sc.Name)
		}
		names[sc.Name] = true
	}

	// Flatten: per scheme, the clean baseline then every scenario, each over
	// every seed, so a cell's runs are contiguous. Slot order is the
	// deterministic identity of each run.
	var cfgs []Config
	for _, scheme := range mc.Schemes {
		for ci := -1; ci < len(mc.Scenarios); ci++ {
			for _, seed := range mc.Seeds {
				c := mc.Base
				c.Scheme = scheme
				c.Seed = seed
				c.Failure = FailureSpec{}
				c.Alerts = mc.Alerts
				if ci < 0 {
					c.Scenario = nil
					c.TimeSeries = false
				} else {
					c.Scenario = mc.Scenarios[ci]
				}
				cfgs = append(cfgs, c)
			}
		}
	}
	statusFor(&mc.Base).Note(fmt.Sprintf(
		"chaos matrix: %d schemes x %d scenarios x %d seeds (+clean baselines)",
		len(mc.Schemes), len(mc.Scenarios), len(mc.Seeds)))
	results, poolErr := RunConfigs(ctx, cfgs, mc.Options)
	if results == nil {
		return nil, poolErr
	}

	// Flush the per-run alert logs in slot order after the pool drains:
	// the log bytes are then a pure function of the matrix config,
	// independent of worker count and scheduling.
	if mc.Alerts != nil && mc.AlertLog != nil {
		labels := runLabels(cfgs...)
		for i, res := range results {
			if res == nil || res.Alerts == nil {
				continue
			}
			if err := alert.WriteRunLog(mc.AlertLog, labels[i], res.Alerts); err != nil {
				return nil, fmt.Errorf("hermes: writing chaos alert log: %w", err)
			}
		}
	}

	m := &ChaosMatrix{
		Schemes: mc.Schemes, Seeds: mc.Seeds,
		AlertsArmed:   mc.Alerts != nil,
		Partial:       poolErr != nil,
		BaselineP99Ms: make(map[Scheme]float64, len(mc.Schemes)),
	}
	for _, sc := range mc.Scenarios {
		m.Scenarios = append(m.Scenarios, sc.Name)
	}

	// runsOf returns the finished runs of scheme si under scenario ci (-1 =
	// clean baseline). Interrupted sweeps leave nil slots; the matrix
	// aggregates whatever finished.
	runsOf := func(si, ci int) []*Result {
		first := (si*(len(mc.Scenarios)+1) + ci + 1) * len(mc.Seeds)
		var out []*Result
		for _, res := range results[first : first+len(mc.Seeds)] {
			if res != nil {
				out = append(out, res)
			}
		}
		return out
	}
	for si, scheme := range mc.Schemes {
		var p99 []float64
		for _, res := range runsOf(si, -1) {
			p99 = append(p99, res.FCT.Overall.P99Ms())
		}
		m.BaselineP99Ms[scheme] = newSeedStats(p99).Mean
	}
	for ci := range mc.Scenarios {
		for si, scheme := range mc.Schemes {
			cell := ChaosCell{Scheme: scheme, Scenario: mc.Scenarios[ci].Name}
			var detect, reroute, worstDip, dipInt, p99, goodput []float64
			for _, res := range runsOf(si, ci) {
				cell.Runs++
				cell.Unfinished += res.FCT.Unfinished
				p99 = append(p99, res.FCT.Overall.P99Ms())
				goodput = append(goodput, res.GoodputGbps)
				runDetect, runReroute := math.Inf(1), math.Inf(1)
				runWorst, runInt := 0.0, 0.0
				if res.Recovery != nil {
					for _, e := range res.Recovery.Events {
						if e.TimeToDetectNs >= 0 && float64(e.TimeToDetectNs) < runDetect {
							runDetect = float64(e.TimeToDetectNs)
						}
						if e.TimeToRerouteNs >= 0 && float64(e.TimeToRerouteNs) < runReroute {
							runReroute = float64(e.TimeToRerouteNs)
						}
						if d := float64(e.DipDurationNs); d > runWorst {
							runWorst = d
						}
						runInt += e.DipIntegralGbpsMs
					}
				}
				if res.Alerts != nil {
					cell.AlertsFired += res.Alerts.Fired
					cell.AlertsResolved += res.Alerts.Resolved
					if res.Recovery != nil {
						cross := crossCheckAlertDetect(res)
						cell.AlertDetectAgree += cross[0]
						cell.AlertDetectTotal += cross[1]
					}
				}
				if !math.IsInf(runDetect, 1) {
					cell.DetectedRuns++
					detect = append(detect, runDetect/1e6)
				}
				if !math.IsInf(runReroute, 1) {
					cell.ReroutedRuns++
					reroute = append(reroute, runReroute/1e6)
				}
				worstDip = append(worstDip, runWorst/1e6)
				dipInt = append(dipInt, runInt)
			}
			cell.MeanDetectMs, cell.MeanRerouteMs = -1, -1
			if len(detect) > 0 {
				cell.MeanDetectMs = newSeedStats(detect).Mean
			}
			if len(reroute) > 0 {
				cell.MeanRerouteMs = newSeedStats(reroute).Mean
			}
			cell.WorstDipMs = newSeedStats(worstDip)
			cell.DipIntegral = newSeedStats(dipInt)
			cell.P99Ms = newSeedStats(p99)
			cell.GoodputGbps = newSeedStats(goodput)
			if base := m.BaselineP99Ms[scheme]; base > 0 {
				cell.P99InflationPct = (cell.P99Ms.Mean/base - 1) * 100
			}
			m.Cells = append(m.Cells, cell)
		}
	}
	m.rank()
	// A cancelled sweep yields BOTH the partial matrix and the error: the
	// caller decides whether to render it (marked Partial) before exiting.
	return m, poolErr
}

// crossCheckAlertDetect reconciles the two independent detection planes of
// one run. The recovery analysis detects at the exact instant of the first
// in-scope path-state transition into gray/failed; the gray-path-dwell rule
// watches the same census through the generic rule engine, but only on
// sample boundaries. Consistency therefore means: at the first sample
// boundary at/after OnsetNs+TimeToDetectNs, a gray-path-dwell alert is
// firing. When the census was clean before the failure, that alert's fire
// time necessarily matches TimeToDetect within one sample interval; when
// routine sense-making had already grayed paths, the dwell alert was firing
// earlier — the watchdog saw the degradation no later than the recovery
// plane. Returns {agreements, detected activations}.
func crossCheckAlertDetect(res *Result) [2]int {
	iv := res.Alerts.IntervalNs
	if iv <= 0 {
		return [2]int{}
	}
	var agree, total int
	for _, e := range res.Recovery.Events {
		if e.TimeToDetectNs < 0 {
			continue
		}
		total++
		d := e.OnsetNs + e.TimeToDetectNs
		s := ((d + iv - 1) / iv) * iv // first sample boundary at/after detection
		for _, a := range res.Alerts.Alerts {
			if a.Rule != AlertGrayPathDwell || a.FiringNs == 0 {
				continue
			}
			if a.FiringNs <= s && (a.ResolvedNs == 0 || a.ResolvedNs > s) {
				agree++
				break
			}
		}
	}
	return [2]int{agree, total}
}

// rank fills Ranking: per scenario each scheme accrues three equally-weighted
// [0,1] penalties — detection latency (no detection = 1; detected =
// latency relative to the scenario's worst dip duration, i.e. the damage
// blind schemes took), dip integral and p99 inflation each normalized by
// the scenario's worst — then scores average over scenarios.
func (m *ChaosMatrix) rank() {
	type acc struct {
		score, detect, dip, infl float64
		detectN                  int
	}
	accs := make([]acc, len(m.Schemes))
	idx := make(map[Scheme]int, len(m.Schemes))
	for i, s := range m.Schemes {
		idx[s] = i
	}
	for _, scn := range m.Scenarios {
		var maxDip, maxInt, maxInfl float64
		for _, s := range m.Schemes {
			c := m.Cell(s, scn)
			if c.WorstDipMs.Mean > maxDip {
				maxDip = c.WorstDipMs.Mean
			}
			if c.DipIntegral.Mean > maxInt {
				maxInt = c.DipIntegral.Mean
			}
			if p := math.Max(c.P99InflationPct, 0); p > maxInfl {
				maxInfl = p
			}
		}
		for _, s := range m.Schemes {
			c, a := m.Cell(s, scn), &accs[idx[s]]
			detectPen := 1.0
			if c.MeanDetectMs >= 0 {
				detectPen = 0
				if maxDip > 0 {
					detectPen = math.Min(1, c.MeanDetectMs/maxDip)
				}
			}
			intPen, inflPen := 0.0, 0.0
			if maxInt > 0 {
				intPen = c.DipIntegral.Mean / maxInt
			}
			if maxInfl > 0 {
				inflPen = math.Max(c.P99InflationPct, 0) / maxInfl
			}
			a.score += (detectPen + intPen + inflPen) / 3
			if c.MeanDetectMs >= 0 {
				a.detect += c.MeanDetectMs
				a.detectN++
			}
			a.dip += c.WorstDipMs.Mean
			a.infl += c.P99InflationPct
		}
	}
	n := float64(len(m.Scenarios))
	for i, s := range m.Schemes {
		detect := -1.0
		if accs[i].detectN > 0 {
			detect = accs[i].detect / float64(accs[i].detectN)
		}
		m.Ranking = append(m.Ranking, SchemeScore{
			Scheme: s, Score: accs[i].score / n,
			MeanDetectMs:        detect,
			MeanWorstDipMs:      accs[i].dip / n,
			MeanP99InflationPct: accs[i].infl / n,
		})
	}
	sort.SliceStable(m.Ranking, func(i, j int) bool {
		return m.Ranking[i].Score < m.Ranking[j].Score
	})
}
