package hermes

import (
	"fmt"
	"io"

	"github.com/hermes-repro/hermes/internal/alert"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// Alert-layer types re-exported so callers can arm rules and read reports
// without importing internal/. See internal/alert for semantics.
type (
	// AlertRule is one declarative SLO condition over a flight-recorder
	// series: a predicate (above/below/rate-above/dip/spike/absent), a
	// for-duration hold, and a severity.
	AlertRule = alert.Rule
	// AlertReport is the end-of-run alert summary on Result.Alerts:
	// every episode with its pending/firing/resolved instants and cause,
	// plus the lifecycle event log.
	AlertReport = alert.Report
	// AlertEvent is one lifecycle edge (pending -> firing -> resolved).
	AlertEvent = alert.Event
)

// Builtin alert rule names (see internal/alert.Builtin).
const (
	AlertGoodputDip      = alert.RuleGoodputDip
	AlertP99FCTInflation = alert.RuleP99FCTInflation
	AlertQueueSaturation = alert.RuleQueueSaturation
	AlertGrayPathDwell   = alert.RuleGrayPathDwell
)

// AlertsConfig arms the SLO watchdog for a run. Setting it implies the
// flight recorder (the evaluator runs on sample boundaries); leaving
// Config.Alerts nil keeps the recorder hot path and every report byte
// unchanged. Evaluation is driven by the virtual clock, so alert logs are
// a pure function of (config, seed) — byte-identical under RunConfigs.
type AlertsConfig struct {
	// Builtin arms the standard pack: goodput-dip, p99-fct-inflation,
	// queue-saturation (sized to the fabric's queue capacity), and
	// gray-path-dwell.
	Builtin bool `json:",omitempty"`
	// Rules appends user rules after the builtin pack.
	Rules []AlertRule `json:",omitempty"`
}

// rules materializes the armed rule set for one run.
func (ac *AlertsConfig) rules(flight *timeseries.Recorder, nw *net.Network) ([]alert.Rule, error) {
	var rules []alert.Rule
	if ac.Builtin {
		rules = alert.Builtin(alert.BuiltinParams{
			IntervalNs:    int64(flight.Interval),
			QueueCapBytes: float64(nw.MaxFabricQueueCap()),
		})
	}
	rules = append(rules, ac.Rules...)
	if len(rules) == 0 {
		return nil, fmt.Errorf("hermes: Config.Alerts set but no rules armed (set Builtin or Rules)")
	}
	return rules, nil
}

// ValidateAlertRules checks a user rule set eagerly (the same validation
// alert.New applies); CLIs use it to reject bad -alert-rules files before
// starting a sweep.
func ValidateAlertRules(rules []AlertRule) error {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AlertRunLog is one run's worth of a parsed alert log.
type AlertRunLog = alert.RunLog

// WriteAlertLog appends one run's alert report to w as JSONL; read it back
// with ReadAlertLog or render it with hermes-trace -alerts.
func WriteAlertLog(w io.Writer, label string, rep *AlertReport) error {
	return alert.WriteRunLog(w, label, rep)
}

// ReadAlertLog parses a JSONL alert log produced by WriteAlertLog or
// ChaosMatrixConfig.AlertLog back into per-run reports.
func ReadAlertLog(r io.Reader) ([]AlertRunLog, error) {
	return alert.ReadLog(r)
}

// RenderAlertText writes the human-readable view of one alert report:
// summary, per-episode lines, and a per-rule state timeline.
func RenderAlertText(w io.Writer, rep *AlertReport, width int) error {
	return alert.RenderText(w, rep, width)
}
