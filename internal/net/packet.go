// Package net models a source-routed leaf-spine datacenter fabric at packet
// granularity: hosts, leaf and spine switches, unidirectional links with
// drop-tail output queues, strict two-level priority, ECN/RED marking, and
// per-port DRE utilization estimators. Explicit path control mirrors the
// XPath mechanism the Hermes prototype uses: every packet may carry the
// spine index it must traverse, and switches honor it.
package net

import "github.com/hermes-repro/hermes/internal/sim"

// Kind discriminates packet types handled by hosts and switches.
type Kind uint8

const (
	// Data is a TCP/DCTCP data segment.
	Data Kind = iota
	// Ack is a pure TCP acknowledgment; it travels in the high-priority
	// queue as in the Hermes testbed configuration.
	Ack
	// Probe is a Hermes active probe. It shares the data queue so that it
	// samples the congestion data packets would experience.
	Probe
	// ProbeEcho is the reply to a Probe; high priority, so the reverse trip
	// adds minimal noise to the RTT measurement.
	ProbeEcho
	// UDPData is an unreliable constant-rate segment (used by the
	// congestion-mismatch micro-benchmarks).
	UDPData
	nKinds
)

// Wire overheads in bytes.
const (
	HeaderBytes    = 40   // IP + TCP headers
	MSS            = 1460 // TCP payload bytes per full segment
	AckBytes       = 40   // pure ACK wire size
	ProbeBytes     = 64   // Hermes probe wire size (§3.1.3)
	MaxPacketBytes = MSS + HeaderBytes
)

// PathAny lets switches pick the uplink (used by switch-local balancers such
// as CONGA, LetFlow and DRILL, and for intra-leaf traffic).
const PathAny = -1

// Packet is the unit of transmission. A single struct covers all kinds to
// keep the hot path allocation-light; unused fields are zero. The 1-byte
// fields sit together so padding between 8-byte ones does not widen it.
type Packet struct {
	Kind Kind

	// ECN state.
	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by queues past the threshold)

	// Retx marks retransmitted segments (excluded from RTT sampling).
	Retx bool
	// EchoCE echoes the CE bit of the data packet an ACK acknowledges (see
	// the ACK fields below).
	EchoCE bool

	// CONGA metadata (see internal/lb/conga.go): the max DRE quantization
	// observed along the forward path, plus one piggybacked feedback entry.
	CongaCE  uint8
	FbValid  bool
	FbPath   uint8
	FbMetric uint8

	Flow uint64
	Src  int // source host id
	Dst  int // destination host id

	Seq     int64 // first payload byte (Data/UDPData); echoed seq for probes
	Payload int   // payload bytes carried
	Wire    int   // total bytes on the wire

	// Path is the spine index this packet must traverse, or PathAny.
	Path int

	// SentAt is stamped by the sender when the packet leaves the host.
	SentAt sim.Time

	// ACK fields: cumulative ack plus a timestamp/path/CE echo of the data
	// packet that triggered this ACK (TCP-timestamp-style, giving the
	// sender one exact per-path RTT and ECN sample per delivered packet).
	AckSeq   int64
	EchoSent sim.Time
	EchoPath int

	// EchoQueue echoes the acked data packet's total forward queueing delay
	// (its delay record's QueueNs at delivery, zero without a record) back
	// to the sender, the per-packet signal the FCT attribution spans
	// aggregate.
	EchoQueue sim.Time

	// delay is the packet's delay record, attached by Host.Send only while
	// a delay account is armed; nil otherwise.
	delay *Delay
	// next links the packet into the port queue holding it, or into the
	// network's free list while pooled.
	next *Packet
}

// Delay is one packet's delay decomposition (FCT attribution). Ports stamp
// it as the packet crosses the fabric. Records exist only while a delay
// account is armed: Host.Send attaches a zeroed one from the network's pool
// and FreePacket returns it, so an untraced run carries none.
type Delay struct {
	EnqAt   sim.Time // enqueue instant on the port currently holding the packet
	QueueNs sim.Time // total time spent waiting in output queues
	SerNs   sim.Time // total serialization (transmission) time
	PropNs  sim.Time // total propagation time
	// HopQueue records the queue wait of each hop in traversal order. For
	// inter-leaf traffic the indices are host->leaf, leaf->spine,
	// spine->leaf, leaf->host; intra-leaf traffic uses the first two.
	HopQueue [MaxHops]sim.Time
	// Hops counts the store-and-forward hops traversed so far.
	Hops uint8
}

// MaxHops is the longest store-and-forward path through a leaf-spine fabric
// (host->leaf, leaf->spine, spine->leaf, leaf->host).
const MaxHops = 4

// Delay returns the packet's delay record, or nil when no delay account was
// armed as it was sent. The fabric reuses the record once the packet is
// delivered or dropped: copy what is needed before the handler returns.
func (p *Packet) Delay() *Delay { return p.delay }

// IsHighPriority reports whether the packet travels in the strict
// high-priority queue (pure ACKs and probe echoes, per §4 of the paper).
func (p *Packet) IsHighPriority() bool {
	return p.Kind == Ack || p.Kind == ProbeEcho
}
