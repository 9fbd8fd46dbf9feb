package metrics

import (
	"testing"
	"testing/quick"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

func TestFCTBuckets(t *testing.T) {
	r := &FCTRecorder{}
	r.Record(50_000, 1*sim.Millisecond)       // small
	r.Record(500_000, 2*sim.Millisecond)      // medium
	r.Record(50_000_000, 100*sim.Millisecond) // large
	r.Record(99_999, 3*sim.Millisecond)       // small (boundary)
	r.Record(10_000_001, 90*sim.Millisecond)  // large (boundary)
	rep := r.Report()
	if rep.Small.Count != 2 || rep.Medium.Count != 1 || rep.Large.Count != 2 {
		t.Fatalf("bucket counts = %d/%d/%d", rep.Small.Count, rep.Medium.Count, rep.Large.Count)
	}
	if rep.Overall.Count != 5 || rep.Flows != 5 {
		t.Fatal("overall count wrong")
	}
	if rep.Unfinished != 0 || rep.UnfinishedFrac != 0 {
		t.Fatal("spurious unfinished flows")
	}
}

func TestFCTStats(t *testing.T) {
	r := &FCTRecorder{}
	for i := 1; i <= 100; i++ {
		r.Record(1000, sim.Time(i)*sim.Millisecond)
	}
	rep := r.Report()
	if rep.Overall.Mean != 50.5*1e6 {
		t.Fatalf("mean = %v, want 50.5 ms", rep.Overall.Mean)
	}
	if rep.Overall.P50 != 50*sim.Millisecond {
		t.Fatalf("p50 = %v", rep.Overall.P50)
	}
	if rep.Overall.P99 != 99*sim.Millisecond {
		t.Fatalf("p99 = %v", rep.Overall.P99)
	}
}

func TestFCTUnfinishedAccounting(t *testing.T) {
	r := &FCTRecorder{}
	r.Record(1000, sim.Millisecond)
	r.RecordUnfinished(1000, 500*sim.Millisecond)
	rep := r.Report()
	if rep.Unfinished != 1 {
		t.Fatal("unfinished not counted")
	}
	if rep.UnfinishedFrac != 0.5 {
		t.Fatalf("unfinished fraction = %v", rep.UnfinishedFrac)
	}
	// The unfinished flow's elapsed time must inflate the mean (Fig 17).
	if rep.Overall.Mean < float64(250*sim.Millisecond) {
		t.Fatal("unfinished elapsed time not charged to the mean")
	}
}

func TestEmptyReport(t *testing.T) {
	r := &FCTRecorder{}
	rep := r.Report()
	if rep.Overall.Count != 0 || rep.Flows != 0 || rep.UnfinishedFrac != 0 {
		t.Fatal("empty recorder produced non-zero report")
	}
}

// Property: percentiles are ordered p50 <= p95 <= p99 and within range.
func TestPercentileOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		r := &FCTRecorder{}
		var min, max sim.Time = 1 << 62, 0
		for _, v := range raw {
			fct := sim.Time(v)
			r.Record(1000, fct)
			if fct < min {
				min = fct
			}
			if fct > max {
				max = fct
			}
		}
		rep := r.Report()
		s := rep.Overall
		return s.P50 <= s.P95 && s.P95 <= s.P99 && s.P50 >= min && s.P99 <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueSampler(t *testing.T) {
	eng := sim.NewEngine()
	var delivered []*net.Packet
	port := net.NewPort(eng, "q", net.PortConfig{RateBps: 1e9, ECNK: -1},
		func(p *net.Packet) { delivered = append(delivered, p) })
	qs := QueueRecorder(eng, port, 10*sim.Microsecond)
	// Enqueue a burst at t=0: the queue drains over ~1.2 ms.
	for i := 0; i < 100; i++ {
		port.Enqueue(&net.Packet{Kind: net.Data, Wire: 1500})
	}
	eng.Run(2 * sim.Millisecond)
	qs.Stop()
	// One sample at start, then one per interval through t = 2 ms.
	if got, want := qs.Len(), 201; got != want {
		t.Fatalf("%d samples, want %d", got, want)
	}
	s := Summarize(qs.Series(QueueSeries))
	if s.Max == 0 {
		t.Fatal("sampler never observed the queue")
	}
	if s.Mean <= 0 || s.StdDev <= 0 {
		t.Fatal("mean/stddev not computed")
	}
	if s.Max > 150_000 {
		t.Fatalf("max %v exceeds physical queue", s.Max)
	}
}

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("empty summary = %+v", got)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Max != 9 || s.Mean != 5 || s.StdDev != 2 {
		t.Fatalf("summary = %+v, want max 9, mean 5, stddev 2", s)
	}
}

func TestStatsMsHelpers(t *testing.T) {
	s := Stats{Mean: 2e6, P99: 5 * sim.Millisecond}
	if s.MeanMs() != 2.0 {
		t.Fatalf("MeanMs = %v", s.MeanMs())
	}
	if s.P99Ms() != 5.0 {
		t.Fatalf("P99Ms = %v", s.P99Ms())
	}
}

func TestSlowdownStats(t *testing.T) {
	r := &FCTRecorder{IdealFCT: func(size int64) sim.Time { return sim.Time(size) }}
	r.Record(1000, 2000) // slowdown 2
	r.Record(1000, 4000) // slowdown 4
	r.Record(1000, 500)  // clamped to 1
	rep := r.Report()
	if rep.Slowdown.Count != 3 {
		t.Fatalf("slowdown count = %d", rep.Slowdown.Count)
	}
	want := (2.0 + 4.0 + 1.0) / 3
	if rep.Slowdown.Mean != want {
		t.Fatalf("slowdown mean = %v, want %v", rep.Slowdown.Mean, want)
	}
	if rep.Slowdown.P50 != 2 || rep.Slowdown.P99 != 4 {
		t.Fatalf("slowdown percentiles = %v/%v", rep.Slowdown.P50, rep.Slowdown.P99)
	}
}

func TestSlowdownDisabledWithoutModel(t *testing.T) {
	r := &FCTRecorder{}
	r.Record(1000, 2000)
	if rep := r.Report(); rep.Slowdown.Count != 0 {
		t.Fatal("slowdown computed without an ideal model")
	}
}

func TestVisibilitySamplerDirect(t *testing.T) {
	eng := sim.NewEngine()
	nw, err := net.NewLeafSpine(eng, sim.NewRNG(1), net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9,
		HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	bal := nullBal{}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer { return bal })
	vs := VisibilityRecorder(tr, sim.Millisecond)
	// Two long inter-leaf flows stay active across many samples.
	tr.StartFlow(0, 2, 1<<40)
	tr.StartFlow(1, 3, 1<<40)
	eng.Run(20 * sim.Millisecond)
	vs.Stop()
	switchPair := Summarize(vs.Series(SwitchPairSeries)).Mean
	hostPair := Summarize(vs.Series(HostPairSeries)).Mean
	// 2 active flows / (2 leaf pairs x 2 paths) = 0.5 per path.
	if switchPair < 0.4 || switchPair > 0.6 {
		t.Fatalf("switch-pair visibility = %.3f, want ~0.5", switchPair)
	}
	// Host pairs: 2 flows / (4x2 pairs x 2 paths) = 0.125.
	if hostPair < 0.1 || hostPair > 0.15 {
		t.Fatalf("host-pair visibility = %.3f, want ~0.125", hostPair)
	}
	if switchPair <= hostPair {
		t.Fatal("switch-pair visibility must exceed host-pair visibility")
	}
}

type nullBal struct{ transport.BaseBalancer }

func (nullBal) Name() string                   { return "null" }
func (nullBal) SelectPath(*transport.Flow) int { return 0 }
