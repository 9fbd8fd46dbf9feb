package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hermes-repro/hermes/internal/net"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/transport"
)

func TestCDFValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []CDFPoint
	}{
		{"too-few", []CDFPoint{{100, 1}}},
		{"non-increasing-bytes", []CDFPoint{{100, 0}, {100, 1}}},
		{"decreasing-prob", []CDFPoint{{100, 0.5}, {200, 0.2}, {300, 1}}},
		{"not-ending-at-1", []CDFPoint{{100, 0}, {200, 0.9}}},
		{"prob-out-of-range", []CDFPoint{{100, -0.1}, {200, 1}}},
	}
	for _, c := range cases {
		if _, err := NewCDF(c.name, c.pts); err == nil {
			t.Errorf("%s: invalid CDF accepted", c.name)
		}
	}
	if _, err := NewCDF("ok", []CDFPoint{{100, 0}, {1000, 1}}); err != nil {
		t.Fatalf("valid CDF rejected: %v", err)
	}
}

func TestSampleWithinBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, dist := range []*CDF{WebSearch, DataMining} {
		pts := dist.Points()
		lo, hi := pts[0].Bytes, pts[len(pts)-1].Bytes
		for i := 0; i < 10000; i++ {
			s := dist.Sample(rng)
			if s < lo || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", dist.Name, s, lo, hi)
			}
		}
	}
}

func TestSampleMeanMatchesAnalyticMean(t *testing.T) {
	rng := sim.NewRNG(2)
	trunc, err := DataMining.Truncate(35_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []*CDF{WebSearch, trunc} {
		want := dist.Mean()
		var sum float64
		const n = 100_000
		for i := 0; i < n; i++ {
			sum += float64(dist.Sample(rng))
		}
		got := sum / n
		if got < 0.9*want || got > 1.1*want {
			t.Fatalf("%s: empirical mean %.0f vs analytic %.0f", dist.Name, got, want)
		}
	}
}

func TestWebSearchHeavyTail(t *testing.T) {
	// §5.1: web-search has ~30% of flows above 1 MB but they carry the
	// overwhelming majority of bytes.
	rng := sim.NewRNG(3)
	var total, tail float64
	big := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		s := float64(WebSearch.Sample(rng))
		total += s
		if s >= 1_000_000 {
			tail += s
			big++
		}
	}
	fracFlows := float64(big) / n
	fracBytes := tail / total
	if fracFlows < 0.25 || fracFlows > 0.35 {
		t.Fatalf("large-flow fraction = %.3f, want ~0.30", fracFlows)
	}
	if fracBytes < 0.90 {
		t.Fatalf("large flows carry %.2f of bytes, want > 0.90", fracBytes)
	}
}

func TestDataMiningSkew(t *testing.T) {
	// The data-mining tail (>= 28 MB here, ~35 MB in the paper) is ~5% of
	// flows but carries most bytes — the paper quotes 95% of bytes in 3.6%
	// of flows.
	rng := sim.NewRNG(4)
	var total, tail float64
	big := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		s := float64(DataMining.Sample(rng))
		total += s
		if s >= 28_000_000 {
			tail += s
			big++
		}
	}
	fracFlows := float64(big) / n
	if fracFlows < 0.03 || fracFlows > 0.07 {
		t.Fatalf("tail flow fraction = %.3f, want ~0.05", fracFlows)
	}
	if tail/total < 0.85 {
		t.Fatalf("tail carries %.2f of bytes, want > 0.85", tail/total)
	}
	// Half of the flows must be tiny (~1 KB or below).
	small := 0
	rng2 := sim.NewRNG(5)
	for i := 0; i < n; i++ {
		if DataMining.Sample(rng2) <= 1100 {
			small++
		}
	}
	if f := float64(small) / n; f < 0.45 || f > 0.55 {
		t.Fatalf("tiny-flow fraction = %.3f, want ~0.50", f)
	}
}

func TestTruncate(t *testing.T) {
	tr, err := DataMining.Truncate(35_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(6)
	for i := 0; i < 50_000; i++ {
		if s := tr.Sample(rng); s > 35_000_000 {
			t.Fatalf("truncated sample %d exceeds cap", s)
		}
	}
	if tr.Mean() >= DataMining.Mean() {
		t.Fatal("truncation must reduce the mean")
	}
	// A cap at the smallest flow size leaves one point; one above 2^50 is
	// out of range. Both are errors, not panics.
	for _, limit := range []int64{100, 1 << 60} {
		if _, err := DataMining.Truncate(limit); err == nil {
			t.Errorf("Truncate(%d) accepted", limit)
		}
	}
}

// Property: sampling is monotone in the uniform draw — a CDF inverse.
func TestSampleMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r1, r2 := sim.NewRNG(seed), sim.NewRNG(seed)
		// Same seed produces identical streams, so identical samples.
		for i := 0; i < 100; i++ {
			if WebSearch.Sample(r1) != WebSearch.Sample(r2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"web-search", "websearch", "ws"} {
		if d, err := ByName(n); err != nil || d != WebSearch {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	for _, n := range []string{"data-mining", "datamining", "dm"} {
		if d, err := ByName(n); err != nil || d != DataMining {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

type nullBalancer struct{ transport.BaseBalancer }

func (nullBalancer) Name() string                   { return "null" }
func (nullBalancer) SelectPath(*transport.Flow) int { return 0 }

func TestGeneratorPairsCrossLeaves(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer {
		return nullBalancer{}
	})
	gen := &Generator{Net: nw, Tr: tr, Rng: rng, Dist: WebSearch, Load: 0.3, MaxFlows: 300}
	seenSrc := map[int]bool{}
	gen.StartFlowFn = func(src, dst int, size int64) {
		f := tr.StartFlow(src, dst, size)
		if f.SrcLeaf == f.DstLeaf {
			t.Fatalf("intra-leaf pair generated: %d -> %d", f.Src, f.Dst)
		}
		seenSrc[f.SrcLeaf] = true
	}
	gen.Start()
	eng.Run(10 * sim.Second)
	if gen.Started() != 300 {
		t.Fatalf("generated %d/300 flows", gen.Started())
	}
	if len(seenSrc) != 4 {
		t.Fatalf("sources cover %d leaves, want 4", len(seenSrc))
	}
}

func TestGeneratorRateMatchesLoad(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(2)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer {
		return nullBalancer{}
	})
	var bytes int64
	gen := &Generator{Net: nw, Tr: tr, Rng: rng, Dist: WebSearch, Load: 0.5, MaxFlows: 600}
	gen.StartFlowFn = func(src, dst int, size int64) { bytes += tr.StartFlow(src, dst, size).Size }
	gen.Start()
	// Drain arrivals only; we do not care about flow completion here.
	for gen.Started() < 600 {
		eng.Run(eng.Now() + 100*sim.Millisecond)
	}
	// Offered rate = bytes*8/elapsed should be ~0.5 * bisection (20 Gbps).
	offered := float64(bytes) * 8 / float64(eng.Now()) * 1e9
	want := 0.5 * 20e9
	if offered < 0.8*want || offered > 1.25*want {
		t.Fatalf("offered %.3g bps, want ~%.3g", offered, want)
	}
}

func TestGeneratorBaseBisectionOverride(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	nw, _ := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	nw.SetFabricLink(0, 0, 0) // degrade the fabric
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer {
		return nullBalancer{}
	})
	g1 := &Generator{Net: nw, Tr: tr, Rng: rng, Dist: WebSearch, Load: 0.5, MaxFlows: 1}
	g1.Start()
	g2 := &Generator{Net: nw, Tr: tr, Rng: rng, Dist: WebSearch, Load: 0.5, MaxFlows: 1,
		BaseBisectionBps: 20e9}
	g2.Start()
	// The override must yield a shorter mean inter-arrival (higher rate).
	if g2.interMean >= g1.interMean {
		t.Fatalf("override interMean %v >= degraded %v", g2.interMean, g1.interMean)
	}
}

func TestParseCDF(t *testing.T) {
	in := `# comment
1000 0
50000 0.5

200000 1
`
	c, err := ParseCDF("test", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Points()); got != 3 {
		t.Fatalf("parsed %d points", got)
	}
	// Three-column variant.
	in3 := "1000 1000 0\n2000 2000 1\n"
	if _, err := ParseCDF("t3", strings.NewReader(in3)); err != nil {
		t.Fatal(err)
	}
	// Errors.
	for _, bad := range []string{"x 0.5\n1 1\n", "100 y\n200 1\n", "1 2 3 4\n", "100 0.5\n"} {
		if _, err := ParseCDF("bad", strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted malformed CDF %q", bad)
		}
	}
}

func TestLoadCDFFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.txt")
	if err := os.WriteFile(path, []byte("100 0\n1000 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCDFFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if s := c.Sample(rng); s < 100 || s > 1000 {
			t.Fatalf("sample %d out of range", s)
		}
	}
	if _, err := LoadCDFFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIncastDirect(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(4)
	nw, err := net.NewLeafSpine(eng, rng, net.Config{
		Leaves: 4, Spines: 2, HostsPerLeaf: 4,
		HostRateBps: 10e9, FabricRateBps: 10e9, HostDelay: 1000, FabricDelay: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.New(nw, transport.DefaultOptions(), func(*net.Host) transport.Balancer {
		return nullBalancer{}
	})
	durs := map[int]sim.Time{}
	ic := &Incast{
		Net: nw, Tr: tr, Rng: rng,
		FanIn: 8, ChunkBytes: 32_000, Interval: 2 * sim.Millisecond, Events: 4,
		OnDone: func(ev int, d sim.Time) { durs[ev] = d },
	}
	ic.Start()
	eng.Run(sim.Second)
	if ic.Started() != 4 || len(durs) != 4 {
		t.Fatalf("events=%d completions=%d, want 4/4", ic.Started(), len(durs))
	}
	for ev, d := range durs {
		if d <= 0 {
			t.Fatalf("incast %d non-positive duration", ev)
		}
	}
	// Defaults fill in when unset.
	ic2 := &Incast{Net: nw, Tr: tr, Rng: rng, Events: 1}
	ic2.Start()
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if ic2.Started() != 1 {
		t.Fatal("defaulted incast did not fire")
	}
}
