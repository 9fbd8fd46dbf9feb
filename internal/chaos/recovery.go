package chaos

import (
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Recovery computation constants.
const (
	// baselineWindowNs is how far before each onset the goodput baseline
	// is averaged.
	baselineWindowNs = int64(10e6)
	// dipThreshold is the fractional goodput drop below baseline that
	// counts as a dip.
	dipThreshold = 0.10
	// DefaultSmooth is the centered moving-average window (samples) applied
	// to the goodput series before dip detection.
	DefaultSmooth = 9
)

// Options parameterizes Compute.
type Options struct {
	// Cables is the fabric's cables-per-link count (for mapping transition
	// path indices to spines).
	Cables int
	// TrafficEndNs clamps dip and re-convergence windows: past the last
	// flow arrival goodput falls to zero for every scheme, which is not a
	// failure dip. 0 = the recording's last sample.
	TrafficEndNs int64
	// Smooth is the moving-average window; zero means DefaultSmooth.
	Smooth int
}

// EventRecovery scores one failure activation. Durations are -1 when the
// signal never appeared (e.g. a scheme with no failure detection never
// "detects"; a dip that never recovers has ReconvergeNs -1).
type EventRecovery struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Label   string `json:"label"`
	Cycle   int    `json:"cycle,omitempty"`
	OnsetNs int64  `json:"onset_ns"`
	ClearNs int64  `json:"clear_ns"` // -1 = never cleared

	// TimeToDetectNs is onset -> first in-scope path-state transition into a
	// degraded state, gray or failed (Hermes's sense-making; ordinary
	// congested transitions do not count; -1 for schemes without detection).
	TimeToDetectNs int64 `json:"time_to_detect_ns"`
	// TimeToRerouteNs is onset -> first increase of the Hermes
	// timeout+failure reroute counters (the first flow actually moved off
	// a sick path). Healthy-congestion RTOs can only shrink this value.
	TimeToRerouteNs int64 `json:"time_to_reroute_ns"`

	// BaselineGbps is the smoothed pre-onset goodput the dip is measured
	// against (0 when no baseline window exists, e.g. onset at t=0; dip
	// fields are -1/0 then).
	BaselineGbps float64 `json:"baseline_gbps"`
	// DipDepth is the worst fractional goodput drop below baseline during
	// the dip (0 = rode through; 1 = total stall).
	DipDepth float64 `json:"dip_depth"`
	// DipDurationNs is how long goodput stayed below the dip threshold
	// (0 = never dipped; clamped to the traffic window).
	DipDurationNs int64 `json:"dip_duration_ns"`
	// DipIntegralGbpsMs integrates the goodput deficit below baseline over
	// the dip: the capacity the failure actually cost, in Gbps·ms.
	DipIntegralGbpsMs float64 `json:"dip_integral_gbps_ms"`

	// ReconvergeNs is clear -> goodput back above the dip threshold
	// (-1 = never within the traffic window, or never cleared).
	ReconvergeNs int64 `json:"reconverge_ns"`
	// PathRestoreNs is clear -> first in-scope transition out of the
	// failed state (the scheme noticed the path came back; -1 = never:
	// sticky avoidance or no detection at all).
	PathRestoreNs int64 `json:"path_restore_ns"`
}

// Recovery is the per-run resilience report: one entry per activation.
type Recovery struct {
	Scenario     string          `json:"scenario"`
	TrafficEndNs int64           `json:"traffic_end_ns"`
	Events       []EventRecovery `json:"events"`
}

// Compute scores every activation in the log against the flight recording.
// It is a pure function of (recording, log, opts), so identical runs yield
// byte-identical recoveries.
func Compute(rec *timeseries.Recorder, log []*Applied, opts Options) *Recovery {
	if opts.Smooth <= 0 {
		opts.Smooth = DefaultSmooth
	}
	if opts.Cables < 1 {
		opts.Cables = 1
	}

	times := rec.Times()
	if opts.TrafficEndNs <= 0 && len(times) > 0 {
		opts.TrafficEndNs = times[len(times)-1]
	}
	goodput := smooth(rec.Series("net.goodput_gbps"), opts.Smooth)
	reroutes := sumSeries(rec.Series("hermes.timeout_reroutes_total"),
		rec.Series("hermes.failure_reroutes_total"))

	out := &Recovery{TrafficEndNs: opts.TrafficEndNs}
	for _, a := range log {
		er := EventRecovery{
			Name: a.Name, Kind: a.Kind, Label: a.Label, Cycle: a.Cycle,
			OnsetNs: a.OnsetNs, ClearNs: a.ClearNs,
			TimeToDetectNs: -1, TimeToRerouteNs: -1,
			DipDurationNs: -1, ReconvergeNs: -1, PathRestoreNs: -1,
		}
		er.TimeToDetectNs = detect(rec.Transitions.All(), a, opts.Cables)
		er.TimeToRerouteNs = firstIncrease(times, reroutes, a.OnsetNs)
		scoreDip(&er, times, goodput, opts)
		if a.ClearNs >= 0 {
			er.PathRestoreNs = restore(rec.Transitions.All(), a, opts.Cables)
		}
		out.Events = append(out.Events, er)
	}
	return out
}

// smooth applies a centered moving average of window w (clamped odd).
func smooth(xs []float64, w int) []float64 {
	if len(xs) == 0 || w <= 1 {
		return xs
	}
	if w%2 == 0 {
		w++
	}
	half := w / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

func sumSeries(a, b []float64) []float64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i]
		if i < len(b) {
			out[i] += b[i]
		}
	}
	return out
}

// detect returns onset -> first in-scope transition into a degraded state
// (gray or failed), -1 if none. Transitions into "congested" are ordinary
// load sensing, not failure detection, so they never count.
func detect(trs []timeseries.Transition, a *Applied, cables int) int64 {
	for _, tr := range trs {
		if tr.AtNs < a.OnsetNs || (tr.To != "gray" && tr.To != "failed") {
			continue
		}
		if a.Scope.HasPath(tr.Leaf, tr.Dst, tr.Path, cables) {
			return tr.AtNs - a.OnsetNs
		}
	}
	return -1
}

// restore returns clear -> first in-scope transition out of failed, -1 if
// none.
func restore(trs []timeseries.Transition, a *Applied, cables int) int64 {
	for _, tr := range trs {
		if tr.AtNs < a.ClearNs || tr.From != "failed" || tr.To == "failed" {
			continue
		}
		if a.Scope.HasPath(tr.Leaf, tr.Dst, tr.Path, cables) {
			return tr.AtNs - a.ClearNs
		}
	}
	return -1
}

// firstIncrease returns fromNs -> the first sample where the cumulative
// series exceeds its last pre-onset value, -1 if never. When the recorder's
// ring has already evicted every pre-onset sample the base is unknowable, so
// the answer is -1 rather than an eviction artifact.
func firstIncrease(times []int64, series []float64, fromNs int64) int64 {
	if len(series) == 0 || len(times) == 0 || times[0] > fromNs {
		return -1
	}
	base := 0.0
	for i, at := range times {
		if i >= len(series) {
			break
		}
		if at < fromNs {
			base = series[i]
			continue
		}
		if series[i] > base {
			return at - fromNs
		}
	}
	return -1
}

// scoreDip fills the goodput-dip block of er from the smoothed series.
func scoreDip(er *EventRecovery, times []int64, goodput []float64, opts Options) {
	if len(goodput) == 0 || len(times) == 0 {
		return
	}
	// Baseline: mean over [onset-window, onset).
	var sum float64
	var n int
	for i, at := range times {
		if i >= len(goodput) {
			break
		}
		if at >= er.OnsetNs-baselineWindowNs && at < er.OnsetNs {
			sum += goodput[i]
			n++
		}
	}
	if n < 3 || sum <= 0 {
		return // onset too early for a baseline; dip metrics stay unset
	}
	baseline := sum / float64(n)
	er.BaselineGbps = baseline
	floor := baseline * (1 - dipThreshold)

	// Dip: first sub-floor sample in [onset, trafficEnd], until recovery.
	dipStart, dipEnd := -1, -1
	endIdx := -1
	for i, at := range times {
		if i >= len(goodput) || at > opts.TrafficEndNs {
			break
		}
		endIdx = i
		if at < er.OnsetNs {
			continue
		}
		if dipStart < 0 {
			if goodput[i] < floor {
				dipStart = i
			}
			continue
		}
		if dipEnd < 0 && goodput[i] >= floor {
			dipEnd = i
			break
		}
	}
	if dipStart < 0 {
		er.DipDurationNs = 0 // rode through the failure
	} else {
		if dipEnd < 0 {
			dipEnd = endIdx // still dipped when traffic ended
		}
		er.DipDurationNs = times[dipEnd] - times[dipStart]
		for i := dipStart; i <= dipEnd; i++ {
			if depth := (baseline - goodput[i]) / baseline; depth > er.DipDepth {
				er.DipDepth = depth
			}
			if i > dipStart {
				dt := float64(times[i] - times[i-1])
				deficit := baseline - (goodput[i]+goodput[i-1])/2
				if deficit > 0 {
					er.DipIntegralGbpsMs += deficit * dt / 1e6
				}
			}
		}
	}

	// Re-convergence after an explicit clear: goodput back above the floor.
	if er.ClearNs >= 0 && er.ClearNs <= opts.TrafficEndNs {
		for i, at := range times {
			if i >= len(goodput) || at > opts.TrafficEndNs {
				break
			}
			if at >= er.ClearNs && goodput[i] >= floor {
				er.ReconvergeNs = at - er.ClearNs
				break
			}
		}
	}
}
