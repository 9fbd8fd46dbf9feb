package core

// PathStateDump is one (dstLeaf, path) entry of a monitor's sensing table —
// the Table 3 variables plus the quarantine horizon, in checkpoint-comparable
// form.
type PathStateDump struct {
	DstLeaf         int     `json:"dst_leaf"`
	Path            int     `json:"path"`
	ECN             float64 `json:"ecn"`
	RTT             float64 `json:"rtt"`
	ECNSamples      int     `json:"ecn_samples"`
	RTTSamples      int     `json:"rtt_samples"`
	WinPkts         int     `json:"win_pkts"`
	WinRetx         int     `json:"win_retx"`
	ConsecTimeouts  int     `json:"consec_timeouts"`
	ConsecProbeLoss int     `json:"consec_probe_loss"`
	FailedUntilNs   int64   `json:"failed_until_ns"`
}

// MonitorDump is one rack monitor's full path-state table plus its event
// counters, in (dstLeaf, path) order.
type MonitorDump struct {
	SrcLeaf        int             `json:"src_leaf"`
	Reroutes       uint64          `json:"reroutes"`
	FailMarkEvents uint64          `json:"fail_mark_events"`
	Paths          []PathStateDump `json:"paths"`
}

// ProberDump is one rack prober's checkpoint-visible state: overhead
// counters, the count of in-flight measurements, and the per-destination
// previously-best path memory.
type ProberDump struct {
	SrcLeaf    int    `json:"src_leaf"`
	ProbesSent uint64 `json:"probes_sent"`
	ProbeBytes uint64 `json:"probe_bytes"`
	ProbesLost uint64 `json:"probes_lost"`
	Pending    int    `json:"pending"`
	PrevBest   []int  `json:"prev_best"`
}

// Dump captures the prober's state; read-only.
func (p *Prober) Dump() *ProberDump {
	return &ProberDump{
		SrcLeaf:    p.Mon.SrcLeaf,
		ProbesSent: p.ProbesSent,
		ProbeBytes: p.ProbeBytes,
		ProbesLost: p.ProbesLost,
		Pending:    len(p.pending),
		PrevBest:   append([]int(nil), p.prevBest...),
	}
}

// Dump captures the monitor's sensing state. Read-only; intra-rack rows
// (dstLeaf == SrcLeaf) are skipped, as no signal ever lands on them.
func (m *Monitor) Dump() *MonitorDump {
	d := &MonitorDump{SrcLeaf: m.SrcLeaf, Reroutes: m.Reroutes, FailMarkEvents: m.FailMarkEvents}
	for dst := range m.paths {
		if dst == m.SrcLeaf {
			continue
		}
		for s, ps := range m.paths[dst] {
			d.Paths = append(d.Paths, PathStateDump{
				DstLeaf:         dst,
				Path:            s,
				ECN:             ps.ecn,
				RTT:             ps.rtt,
				ECNSamples:      ps.ecnSamples,
				RTTSamples:      ps.rttSamples,
				WinPkts:         ps.winPkts,
				WinRetx:         ps.winRetx,
				ConsecTimeouts:  ps.consecTimeouts,
				ConsecProbeLoss: ps.consecProbeLoss,
				FailedUntilNs:   ps.failedUntil,
			})
		}
	}
	return d
}
