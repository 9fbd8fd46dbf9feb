package metrics

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
)

// throughputSampler starts a recorder that samples port p's transmit rate
// in Gbit/s every interval: the recorder's Gbps rate over the TxBytes
// counter (the signal behind Figures 2b/3b's rate plots).
func throughputSampler(eng *sim.Engine, p *net.Port, interval sim.Time) *timeseries.Recorder {
	rec := timeseries.NewSweep(eng, interval)
	rec.RegisterRate("gbps", func() float64 { return float64(p.TxBytes) }, timeseries.Gbps)
	rec.Start()
	return rec
}

func TestThroughputSampler(t *testing.T) {
	eng := sim.NewEngine()
	port := net.NewPort(eng, "t", net.PortConfig{RateBps: 10e9, ECNK: -1}, func(*net.Packet) {})
	ts := throughputSampler(eng, port, 100*sim.Microsecond)
	// Offer exactly line rate for 2 ms: 1500 B every 1.2 us.
	var inject func()
	n := 0
	inject = func() {
		if n >= 1500 {
			return
		}
		n++
		port.Enqueue(&net.Packet{Kind: net.Data, Wire: 1500})
		eng.Schedule(1200, inject)
	}
	inject()
	eng.Run(2 * sim.Millisecond)
	ts.Stop()
	if ts.Len() < 10 {
		t.Fatalf("only %d samples", ts.Len())
	}
	mean := Summarize(ts.Series("gbps")).Mean
	if mean < 8 || mean > 10.5 {
		t.Fatalf("mean goodput %.2f Gbps, want ~10", mean)
	}
}
