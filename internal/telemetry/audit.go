package telemetry

import "github.com/hermes-repro/hermes/internal/timeseries"

// AuditKind classifies a Hermes decision-log entry.
type AuditKind string

// Audit entry kinds.
const (
	// AuditPlace records an initial (or post-failure/timeout) placement.
	AuditPlace AuditKind = "place"
	// AuditReroute records a congestion-triggered cautious reroute.
	AuditReroute AuditKind = "reroute"
	// AuditVerdict records a path being marked failed by the monitor.
	AuditVerdict AuditKind = "verdict"
	// AuditChaos records a chaos-scenario failure activation or clear, so
	// the scheme's verdicts can be cross-referenced against the failures
	// that actually happened.
	AuditChaos AuditKind = "chaos"
)

// Audit reasons. Placement reasons say why a fresh path was needed; verdict
// reasons say which Algorithm 1 rule condemned the path.
const (
	ReasonFresh      = "fresh"       // new flow, first placement
	ReasonTimeout    = "timeout"     // RTO forced the flow off its path
	ReasonFailure    = "failure"     // current path carries a failed verdict
	ReasonCongestion = "congestion"  // cautious reroute off a congested path
	ReasonBlackhole  = "blackhole"   // consecutive data timeouts, no delivery
	ReasonSilentDrop = "silent-drop" // high retx fraction on uncongested path
	ReasonProbeLoss  = "probe-loss"  // consecutive probe losses
	ReasonInject     = "inject"      // chaos: a failure came up
	ReasonClear      = "clear"       // chaos: a failure was reverted
)

// AuditEntry is one Hermes decision with its triggering reason. Timestamps
// are simulation time only — wall clock never appears, so identical seeds
// produce identical logs.
type AuditEntry struct {
	At     int64     `json:"at_ns"`
	Kind   AuditKind `json:"kind"`
	Reason string    `json:"reason"`
	Host   int       `json:"host"`
	Flow   uint64    `json:"flow,omitempty"`
	// SrcLeaf is the rack the decision came from: the host's leaf, or the
	// leaf whose monitor issued a verdict (-1 for chaos entries).
	SrcLeaf int `json:"src_leaf"`
	DstLeaf int `json:"dst_leaf"`
	// FromPath is the path being left (-1 when there was none) and ToPath
	// the chosen one (-1 for verdicts, which condemn FromPath).
	FromPath int `json:"from_path"`
	ToPath   int `json:"to_path"`
	// Note carries free-text context for entries that are not host
	// decisions (chaos activations record their injector label here).
	Note string `json:"note,omitempty"`
}

// AuditLog is the Hermes decision log: placements, reroutes and verdicts,
// plus chaos activations and clears. A nil log is disarmed.
type AuditLog = timeseries.Log[AuditEntry]

// MaxAuditEntries caps the decision log.
const MaxAuditEntries = 100_000

// NewAuditLog builds an empty decision log.
func NewAuditLog() *AuditLog { return timeseries.NewLog[AuditEntry](MaxAuditEntries) }

// AuditSummary is the serializable aggregate of an audit log.
type AuditSummary struct {
	Entries  int            `json:"entries"`
	Dropped  uint64         `json:"dropped"`
	ByKind   map[string]int `json:"by_kind,omitempty"`
	ByReason map[string]int `json:"by_reason,omitempty"`
}

// SummarizeAudit aggregates the log by kind and reason.
func SummarizeAudit(l *AuditLog) AuditSummary {
	s := AuditSummary{Entries: l.Len(), Dropped: uint64(l.Dropped())}
	if s.Entries == 0 {
		return s
	}
	s.ByKind = map[string]int{}
	s.ByReason = map[string]int{}
	for _, e := range l.All() {
		s.ByKind[string(e.Kind)]++
		s.ByReason[e.Reason]++
	}
	return s
}
