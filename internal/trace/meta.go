package trace

import "github.com/hermes-repro/hermes/internal/net"

// SchemaV2 identifies the span-bearing trace format. v1 traces (flat event
// lists with no meta line) are still readable; they simply lack spans and
// calibration constants, so attribution degrades to event counting.
const SchemaV2 = "hermes-trace/v2"

// Meta is the trace header: which run produced it and the calibration
// constants attribution needs. All times are nanoseconds, rates bits/s.
type Meta struct {
	Schema   string  `json:"schema"`
	Scheme   string  `json:"scheme,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Failure  string  `json:"failure,omitempty"`
	// BaseRTTNs is the unloaded round-trip across the fabric; the floor any
	// FCT decomposition subtracts before blaming queues.
	BaseRTTNs int64 `json:"base_rtt_ns,omitempty"`
	// HostRateBps is the access-link rate, fixing the ideal serialization
	// time of a flow of a given size.
	HostRateBps   int64 `json:"host_rate_bps,omitempty"`
	SimDurationNs int64 `json:"sim_duration_ns,omitempty"`
}

// FlowHops is the fabric's delay decomposition for one flow: where its
// packets spent time, hop by hop. Hop 0 is the host->leaf access link, hop
// net.MaxHops-1 the final leaf->host link. This is ground truth measured at
// every output port (net.DelayAccount), complementing the span view built
// from ACK echoes.
type FlowHops struct {
	Flow       uint64              `json:"flow"`
	DataPkts   uint64              `json:"data_pkts"`
	RetxPkts   uint64              `json:"retx_pkts,omitempty"`
	MarkedPkts uint64              `json:"marked_pkts,omitempty"`
	QueueNs    int64               `json:"queue_ns"`
	SerNs      int64               `json:"ser_ns"`
	PropNs     int64               `json:"prop_ns"`
	HopQueueNs [net.MaxHops]int64  `json:"hop_queue_ns"`
	HopPkts    [net.MaxHops]uint64 `json:"hop_pkts"`
	AckPkts    uint64              `json:"ack_pkts,omitempty"`
	AckQueueNs int64               `json:"ack_queue_ns,omitempty"`
}

// FlowHopsFrom converts one fabric aggregate into its trace record.
func FlowHopsFrom(fd *net.FlowDelay) FlowHops {
	fh := FlowHops{
		Flow:       fd.Flow,
		DataPkts:   fd.DataPkts,
		RetxPkts:   fd.RetxPkts,
		MarkedPkts: fd.MarkedPkts,
		QueueNs:    int64(fd.QueueNs),
		SerNs:      int64(fd.SerNs),
		PropNs:     int64(fd.PropNs),
		AckPkts:    fd.AckPkts,
		AckQueueNs: int64(fd.AckQueueNs),
	}
	for i := 0; i < net.MaxHops; i++ {
		fh.HopQueueNs[i] = int64(fd.HopQueueNs[i])
		fh.HopPkts[i] = fd.HopPkts[i]
	}
	return fh
}

// SetFlowHops stores the fabric's per-flow aggregates (sorted by flow ID by
// DelayAccount.Flows, keeping exports deterministic).
func (r *Recorder) SetFlowHops(acct *net.DelayAccount) {
	if acct == nil {
		return
	}
	flows := acct.Flows()
	r.FlowHops = make([]FlowHops, 0, len(flows))
	for _, fd := range flows {
		r.FlowHops = append(r.FlowHops, FlowHopsFrom(fd))
	}
}
