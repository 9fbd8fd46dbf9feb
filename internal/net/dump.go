package net

// PortDump is one port's checkpoint-visible state: identity, configured
// rate, and the cumulative counters plus instantaneous queue occupancy that
// fingerprint its position in a deterministic run.
type PortDump struct {
	Name        string `json:"name"`
	RateBps     int64  `json:"rate_bps"`
	TxBytes     uint64 `json:"tx_bytes"`
	TxPackets   uint64 `json:"tx_packets"`
	Drops       uint64 `json:"drops"`
	ECNMarks    uint64 `json:"ecn_marks"`
	QueuedBytes int64  `json:"queued_bytes"`
	Holding     int64  `json:"holding"`
	BusyNs      int64  `json:"busy_ns"`
}

// Dump is the fabric's full observable state for checkpoint verification:
// every cable rate, every port in ForEachPort order, the packet ledger, the
// per-switch silent-drop counters and drop-hook census, and the packet-pool
// bookkeeping. All of it is deterministic per seed, so two replays of the
// same run agree byte-for-byte.
type Dump struct {
	CableRates       [][][]int64 `json:"cable_rates"` // [leaf][spine][cable]
	Ports            []PortDump  `json:"ports"`
	Injected         uint64      `json:"injected"`
	Delivered        uint64      `json:"delivered"`
	DeliveredPayload uint64      `json:"delivered_payload"`
	SwitchDrops      []uint64    `json:"switch_drops"` // leaves then spines
	DropHooks        []int       `json:"drop_hooks"`   // leaves then spines
	PoolFree         int         `json:"pool_free"`
}

// Dump captures the fabric state. It is read-only: no RNG draws, no event
// scheduling, no counter resets.
func (n *Network) Dump() *Dump {
	d := &Dump{
		Injected:         n.injected,
		Delivered:        n.delivered,
		DeliveredPayload: n.deliveredPayload,
		PoolFree:         n.nFree,
	}
	d.CableRates = make([][][]int64, n.Cfg.Leaves)
	for l := 0; l < n.Cfg.Leaves; l++ {
		d.CableRates[l] = make([][]int64, n.Cfg.Spines)
		for s := 0; s < n.Cfg.Spines; s++ {
			rates := make([]int64, n.Cables())
			for c := range rates {
				rates[c] = n.CableRate(l, s, c)
			}
			d.CableRates[l][s] = rates
		}
	}
	n.ForEachPort(func(p *Port) {
		d.Ports = append(d.Ports, PortDump{
			Name:        p.Name,
			RateBps:     p.RateBps(),
			TxBytes:     p.TxBytes,
			TxPackets:   p.TxPackets,
			Drops:       p.Drops,
			ECNMarks:    p.ECNMarks,
			QueuedBytes: int64(p.QueuedBytes()),
			Holding:     p.Holding(),
			BusyNs:      p.BusyTime(),
		})
	})
	for _, sw := range n.Leaves {
		d.SwitchDrops = append(d.SwitchDrops, sw.Drops)
		d.DropHooks = append(d.DropHooks, sw.DropFnCount())
	}
	for _, sw := range n.Spines {
		d.SwitchDrops = append(d.SwitchDrops, sw.Drops)
		d.DropHooks = append(d.DropHooks, sw.DropFnCount())
	}
	return d
}
