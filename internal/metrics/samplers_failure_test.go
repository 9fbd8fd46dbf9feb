package metrics

import (
	"testing"

	"github.com/hermes-repro/hermes/internal/lb"
	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/timeseries"
	"github.com/hermes-repro/hermes/internal/transport"
)

// failureStack builds a small loaded fabric with ECMP so the samplers watch
// real traffic while a failure is injected mid-run.
func failureStack(t *testing.T) (*sim.Engine, *net.Network, *transport.Transport) {
	t.Helper()
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(7), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 1e9, FabricRateBps: 1e9,
		HostDelay: 2000, FabricDelay: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &lb.ECMP{Net: nw}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer { return e })
	return eng, nw, tr
}

// checkTimes verifies the clock every sample stream must keep regardless of
// what the fabric does: strictly increasing timestamps spaced one interval
// apart.
func checkTimes(t *testing.T, rec *timeseries.Recorder, interval sim.Time) {
	t.Helper()
	times := rec.Times()
	if len(times) == 0 {
		t.Fatal("sampler recorded nothing")
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[i-1]+int64(interval) {
			t.Fatalf("sample %d: timestamp %d not one interval after %d", i, times[i], times[i-1])
		}
	}
}

func checkQueueSamples(t *testing.T, qs *timeseries.Recorder, interval sim.Time) {
	t.Helper()
	checkTimes(t, qs, interval)
	for i, b := range qs.Series(QueueSeries) {
		if b < 0 {
			t.Fatalf("sample %d: negative queue %v", i, b)
		}
	}
}

func checkThroughputSamples(t *testing.T, ts *timeseries.Recorder, maxGbps float64, interval sim.Time) {
	t.Helper()
	checkTimes(t, ts, interval)
	// A packet whose transmission starts right at a window boundary is
	// charged to that window whole, so allow one wire packet of slack.
	slack := float64((net.MSS+net.HeaderBytes)*8) / float64(interval)
	for i, g := range ts.Series("gbps") {
		// TxBytes is cumulative, so a negative rate would mean the counter
		// ran backwards.
		if g < 0 {
			t.Fatalf("sample %d: negative goodput %f", i, g)
		}
		if g > maxGbps+slack {
			t.Fatalf("sample %d: %f Gbps exceeds line rate %f", i, g, maxGbps)
		}
	}
}

func TestSamplersUnderLinkCut(t *testing.T) {
	eng, nw, tr := failureStack(t)
	port := nw.UplinkPort(0, 0) // leaf0 -> spine0, the link we will cut
	const interval = 50 * sim.Microsecond
	qs := QueueRecorder(eng, port, interval)
	ts := throughputSampler(eng, port, interval)

	// Keep both uplinks busy with long cross-rack flows in both directions.
	for i := 0; i < 4; i++ {
		tr.StartFlow(i%2, 2+i%2, 4_000_000)
	}
	eng.Schedule(5*sim.Millisecond, func() { nw.SetFabricLink(0, 0, 0) })
	eng.Run(15 * sim.Millisecond)
	qs.Stop()
	ts.Stop()

	checkQueueSamples(t, qs, interval)
	checkThroughputSamples(t, ts, 1.0, interval)
	gbps := ts.Series("gbps")
	if Summarize(gbps).Mean <= 0 {
		t.Fatal("no traffic ever crossed the sampled port")
	}
	// The dead link stops transmitting: the tail of both series must go
	// flat at zero (drained queue, zero rate).
	queue := qs.Series(QueueSeries)
	if tail := queue[len(queue)-1]; tail != 0 {
		t.Fatalf("cut port still queues %v bytes at run end", tail)
	}
	if tail := gbps[len(gbps)-1]; tail != 0 {
		t.Fatalf("cut port still transmits %f Gbps at run end", tail)
	}
}

func TestSamplersUnderDegradation(t *testing.T) {
	eng, nw, tr := failureStack(t)
	port := nw.UplinkPort(0, 0)
	const interval = 50 * sim.Microsecond
	qs := QueueRecorder(eng, port, interval)
	ts := throughputSampler(eng, port, interval)

	for i := 0; i < 4; i++ {
		tr.StartFlow(i%2, 2+i%2, 4_000_000)
	}
	// Degrade the sampled link to a tenth of its rate mid-run.
	eng.Schedule(5*sim.Millisecond, func() { nw.SetFabricLink(0, 0, 100e6) })
	eng.Run(15 * sim.Millisecond)
	qs.Stop()
	ts.Stop()

	checkQueueSamples(t, qs, interval)
	checkThroughputSamples(t, ts, 1.0, interval) // bound: pre-degrade line rate
	gbps := ts.Series("gbps")
	if Summarize(gbps).Mean <= 0 {
		t.Fatal("no traffic ever crossed the sampled port")
	}
	// After degradation the port can never exceed the new rate; check the
	// tail half of the series against it.
	slack := float64((net.MSS+net.HeaderBytes)*8) / float64(interval)
	for _, g := range gbps[len(gbps)/2:] {
		if g > 0.1+slack {
			t.Fatalf("degraded port transmitted %f Gbps after re-rate", g)
		}
	}
}
