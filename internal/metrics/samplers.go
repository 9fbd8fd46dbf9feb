package metrics

import (
	"fmt"
	"math"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// Series names of the samplers below.
const (
	// QueueSeries is a port's data-queue depth in bytes.
	QueueSeries = "queue_bytes"
	// SwitchPairSeries and HostPairSeries are Table 2's visibility: the
	// concurrent inter-leaf flows per parallel path observable at
	// switch-pair granularity (all flows between two leaves) and at
	// host-pair granularity (flows between two specific hosts).
	SwitchPairSeries = "visibility.switch_pair"
	HostPairSeries   = "visibility.host_pair"
)

// QueueRecorder starts a recorder that samples port p's data-queue depth
// (the signal behind Figures 2b, 3b and 4b) now and every interval after,
// as series QueueSeries.
func QueueRecorder(eng *sim.Engine, p *net.Port, interval sim.Time) *timeseries.Recorder {
	rec := timeseries.NewSweep(eng, interval)
	rec.Register(QueueSeries, func() float64 { return float64(p.QueuedBytes()) })
	rec.Snap()
	rec.Start()
	return rec
}

// QueueStats formats a queue recorder's mean, max and standard deviation,
// as the Fig 2-4 experiments print them.
func QueueStats(q *timeseries.Recorder) string {
	s := Summarize(q.Series(QueueSeries))
	return fmt.Sprintf("mean %.0f B, max %.0f B, stddev %.0f B", s.Mean, s.Max, s.StdDev)
}

// VisibilityRecorder starts a recorder that samples Table 2's visibility now
// and every interval after, as series SwitchPairSeries and HostPairSeries.
func VisibilityRecorder(tr *transport.Transport, interval sim.Time) *timeseries.Recorder {
	nw := tr.Net
	paths := nw.NPaths()
	leaves, hosts := nw.Cfg.Leaves, len(nw.Hosts)
	leafPairs := leaves * (leaves - 1)
	hostPairs := hosts * (hosts - nw.Cfg.HostsPerLeaf)
	perPath := func(pairs int) func() float64 {
		return func() float64 {
			if pairs <= 0 || paths <= 0 {
				return 0
			}
			interLeaf := 0
			for _, f := range tr.ActiveFlows() {
				if f.SrcLeaf != f.DstLeaf {
					interLeaf++
				}
			}
			return float64(interLeaf) / float64(pairs*paths)
		}
	}
	rec := timeseries.NewSweep(tr.Eng, interval)
	rec.Register(SwitchPairSeries, perPath(leafPairs))
	rec.Register(HostPairSeries, perPath(hostPairs))
	rec.Snap()
	rec.Start()
	return rec
}

// Summary describes one sampled series.
type Summary struct {
	Max  float64 // the largest sample, or 0 when every sample is negative
	Mean float64
	// StdDev is the population standard deviation — for a queue, the
	// "queue oscillation" measure of §2.2.2.
	StdDev float64
}

// Summarize describes xs; all zero when xs is empty.
func Summarize(xs []float64) Summary {
	var s Summary
	n := float64(len(xs))
	if n == 0 {
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / n
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / n)
	return s
}
