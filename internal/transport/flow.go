package transport

import (
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
)

// Protocol selects the congestion control algorithm.
type Protocol int

const (
	// DCTCP marks data ECT, maintains the alpha estimator and reduces the
	// window proportionally to the marked fraction (the paper's default).
	DCTCP Protocol = iota
	// Reno is plain TCP NewReno without ECN (the §5.4 "different transport
	// protocols" comparison).
	Reno
	// Timely is RTT-gradient congestion control [26] (extension; see
	// timely.go).
	Timely
)

// The paper's TCP settings, fixed for every endpoint.
const (
	initCwndPkts  = 10                   // initial window in segments
	rtoMin        = 10 * sim.Millisecond // minimum and initial RTO
	dupThresh     = 3                    // duplicate ACKs for fast retransmit
	dctcpG        = 1.0 / 16             // DCTCP alpha gain
	maxRTOBackoff = 6                    // RTO backoff cap: rtoMin << maxRTOBackoff
)

// Options configures all endpoints of a Transport.
type Options struct {
	Protocol Protocol

	// ReorderTimeout, when positive, enables a JUGGLER-style receive-side
	// reordering buffer: out-of-order arrivals are held back and generate
	// no duplicate ACKs unless the hole persists past the timeout. Presto*
	// uses this to mask spraying-induced reordering.
	ReorderTimeout sim.Time

	// Subflows, when positive, carries every flow StartFlow opens as MPTCP:
	// up to Subflows subflows pulling from one shared buffer.
	Subflows int
	// ReplicateBelow, when positive, carries every flow StartFlow opens
	// that is smaller than it as RepFlow: two racing copies. Subflows wins
	// when both are set.
	ReplicateBelow int64

	// Timely configures the RTT-gradient controller (Protocol == Timely).
	Timely TimelyParams
}

// DefaultOptions returns the paper's transport settings.
func DefaultOptions() Options {
	return Options{Protocol: DCTCP}
}

// Flow is the sender-side state of one TCP/DCTCP flow. Balancers receive
// *Flow and may read the exported fields and accessors; the unexported
// fields belong to the congestion control machinery.
type Flow struct {
	ID      uint64
	Src     int
	Dst     int
	SrcLeaf int
	DstLeaf int
	Size    int64
	StartAt sim.Time
	EndAt   sim.Time
	Done    bool

	// CurPath is the path of the most recently sent segment. Balancers
	// both read and (through SelectPath's return value) set it.
	CurPath int
	// TimedOut is set when the flow experiences an RTO (i_f^timeout in
	// Table 3) and cleared by Hermes when it handles the reroute.
	TimedOut bool
	// PathChanges counts reroutes, for reporting.
	PathChanges int
	// Hidden marks a member of a logical flow, an MPTCP subflow or a
	// RepFlow copy: its logical flow completes and reports instead.
	Hidden bool
	// Cancelled is set on the losing copy of a RepFlow race: the flow was
	// aborted rather than completed; Done is also set, and EndAt records the
	// cancellation instant.
	Cancelled bool

	grp     *group // set on a logical flow carried by members, and on each member
	started bool

	// Sliding window state.
	sndNxt     int64
	hiWater    int64 // highest byte ever sent; sends below it are resends
	cumAck     int64
	cwnd       float64
	ssthresh   float64
	dupacks    int
	inRecovery bool
	recoverSeq int64

	// DCTCP state.
	alpha       float64
	bytesAcked  int64
	bytesMarked int64
	alphaSeq    int64
	cwrSeq      int64

	// TIMELY controller state (Protocol == Timely).
	timely timelyState

	// RTT estimation / RTO.
	srtt, rttvar float64
	rtoBackoff   int
	rtoTimer     *sim.Event
	timeouts     int

	dre net.DRE
	ep  *Endpoint
}

// SentBytes returns the bytes handed to the network so far (s_sent in
// Table 3, the remaining-size estimator input).
func (f *Flow) SentBytes() int64 { return f.sndNxt }

// AckedBytes returns the cumulatively acknowledged bytes.
func (f *Flow) AckedBytes() int64 { return f.cumAck }

// RateBps returns the flow's estimated sending rate (r_f in Table 3).
func (f *Flow) RateBps(now sim.Time) float64 { return f.dre.RateBps(now) }

// Started reports whether any segment has been sent yet; a false value means
// SelectPath is choosing the initial path.
func (f *Flow) Started() bool { return f.started }

// Timeouts returns the number of RTO events the flow has suffered.
func (f *Flow) Timeouts() int { return f.timeouts }

// FCT returns the flow completion time, valid once Done.
func (f *Flow) FCT() sim.Time { return f.EndAt - f.StartAt }

// Cwnd returns the congestion window in bytes (exposed for tests and
// instrumentation).
func (f *Flow) Cwnd() float64 { return f.cwnd }

// Alpha returns the DCTCP fraction estimate (exposed for tests).
func (f *Flow) Alpha() float64 { return f.alpha }
