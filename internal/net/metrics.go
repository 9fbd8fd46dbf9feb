package net

import (
	"github.com/hermes-repro/hermes/internal/telemetry"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

const (
	report = telemetry.SinkReport
	flight = telemetry.SinkFlight
)

// fabric is the network as its fabric-wide metrics read it.
type fabric struct {
	n *Network
	// ports is every port: leaf uplinks and downlinks, spine downlinks,
	// host access links.
	ports []*Port
}

// portSum reads one counter summed over every port.
func portSum(read func(*Port) uint64) func(*fabric) float64 {
	return func(f *fabric) float64 {
		var t uint64
		for _, p := range f.ports {
			t += read(p)
		}
		return float64(t)
	}
}

// fabricMetrics declares the fabric-wide metrics. Port sums run over every
// port, host access ports included; the report keeps the cumulative totals
// and the flight ring their rates.
var fabricMetrics = []telemetry.Probe[*fabric]{
	{Metric: telemetry.Metric{Name: "net.tx_bytes_total", Sinks: report, Rate: "net.tx_gbps", Per: timeseries.Gbps},
		Read: portSum(func(p *Port) uint64 { return p.TxBytes })},
	// Goodput: application payload bytes landing at destination hosts. The
	// recovery analysis dips on this series rather than tx_gbps because the
	// latter counts headers, ACKs, probes and retransmits on every port, all
	// of which INCREASE under failure and mask the dip.
	{Metric: telemetry.Metric{Rate: "net.goodput_gbps", Per: timeseries.Gbps},
		Read: func(f *fabric) float64 { return float64(f.n.deliveredPayload) }},
	{Metric: telemetry.Metric{Name: "net.drops_total", Sinks: report | flight},
		Read: portSum(func(p *Port) uint64 { return p.Drops })},
	{Metric: telemetry.Metric{Name: "net.ecn_marks_total", Sinks: report | flight},
		Read: portSum(func(p *Port) uint64 { return p.ECNMarks })},
	{Metric: telemetry.Metric{Name: "net.tx_packets_total", Sinks: report},
		Read: portSum(func(p *Port) uint64 { return p.TxPackets })},
	{Metric: telemetry.Metric{Name: "net.queue_hiwater_bytes_max", Sinks: report},
		Read: func(f *fabric) float64 {
			var m int
			for _, p := range f.ports {
				if p.hiWater > m {
					m = p.hiWater
				}
			}
			return float64(m)
		}},
}

// portMetrics declares the per-port metrics of every fabric port (leaf
// uplinks and spine downlinks), labelled port=<name>. Host access ports
// contribute to the fabric-wide sums only, keeping the series count
// proportional to the fabric rather than the host count.
var portMetrics = []telemetry.Probe[*Port]{
	{Metric: telemetry.Metric{Name: "net.port.queue_bytes", Sinks: report | flight},
		Read: func(p *Port) float64 { return float64(p.loBytes) }},
	{Metric: telemetry.Metric{Name: "net.port.queue_hiwater_bytes", Sinks: report},
		Read: func(p *Port) float64 { return float64(p.hiWater) }},
	// The deepest queue since the previous flight sample (read-and-reset).
	{Metric: telemetry.Metric{Name: "net.port.queue_peak_bytes", Sinks: flight},
		Read: func(p *Port) float64 { return float64(p.TakeQueuePeak()) }},
	{Metric: telemetry.Metric{Name: "net.port.busy_ns", Sinks: report, Rate: "net.port.util", Per: timeseries.Fraction},
		Read: func(p *Port) float64 { return float64(p.busyTime) }},
	{Metric: telemetry.Metric{Name: "net.port.ecn_marks", Sinks: report, Rate: "net.port.ecn_mark_rate", Per: timeseries.PerInterval},
		Read: func(p *Port) float64 { return float64(p.ECNMarks) }},
	{Metric: telemetry.Metric{Name: "net.port.drops", Sinks: report, Rate: "net.port.drop_rate", Per: timeseries.PerInterval},
		Read: func(p *Port) float64 { return float64(p.Drops) }},
	{Metric: telemetry.Metric{Name: "net.port.tx_bytes", Sinks: report},
		Read: func(p *Port) float64 { return float64(p.TxBytes) }},
}

// DeclareMetrics declares the fabric's metrics on pl. Every probe is a pull
// read of a counter the ports keep anyway, so the data-plane hot path is
// untouched except for the one peak-tracking branch the flight ring arms.
func (n *Network) DeclareMetrics(pl telemetry.Plane) {
	if !pl.Armed(report | flight) {
		return
	}
	f := &fabric{n: n}
	for _, leaf := range n.Leaves {
		f.ports = append(f.ports, leaf.up...)
		f.ports = append(f.ports, leaf.down...)
	}
	for _, sp := range n.Spines {
		f.ports = append(f.ports, sp.down...)
	}
	for _, h := range n.Hosts {
		f.ports = append(f.ports, h.uplink)
	}
	telemetry.DeclareAll(pl, f, fabricMetrics)
	declarePorts := func(ports []*Port) {
		for _, p := range ports {
			if pl.Flight != nil {
				p.EnablePeakSampling()
			}
			telemetry.DeclareAll(pl, p, portMetrics, "port", p.Name)
		}
	}
	for _, leaf := range n.Leaves {
		declarePorts(leaf.up)
	}
	for _, sp := range n.Spines {
		declarePorts(sp.down)
	}
}
