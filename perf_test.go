package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestPerfResultPopulated: a run with Config.Perf set carries a populated
// perf block — every engine event accounted by kind, wall-clock attribution
// present — and the status tracker's perf aggregate takes it in.
func TestPerfResultPopulated(t *testing.T) {
	st := NewStatus()
	cfg := goldenConfig()
	cfg.Perf = &PerfOptions{SampleEvery: 8}
	cfg.Status = st
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perf
	if p == nil {
		t.Fatal("Result.Perf nil with Config.Perf set")
	}
	if p.EventsTotal == 0 {
		t.Fatal("no events counted")
	}
	if p.SampleEvery != 8 {
		t.Fatalf("SampleEvery = %d, want 8", p.SampleEvery)
	}
	if len(p.ByKind) == 0 {
		t.Fatal("no per-kind stats")
	}
	var byKindSum uint64
	for _, ks := range p.ByKind {
		byKindSum += ks.Count
	}
	if byKindSum != p.EventsTotal {
		t.Fatalf("ByKind sums to %d, EventsTotal %d", byKindSum, p.EventsTotal)
	}
	if p.QueuePeak < 1 {
		t.Fatalf("QueuePeak = %d", p.QueuePeak)
	}
	if p.WallNs <= 0 || p.SimNs <= 0 {
		t.Fatalf("clocks: wall %d ns, sim %d ns", p.WallNs, p.SimNs)
	}
	if p.EventsPerSec <= 0 {
		t.Fatalf("EventsPerSec = %v", p.EventsPerSec)
	}
	if p.GOMAXPROCS < 1 || p.PeakHeapBytes == 0 {
		t.Fatalf("runtime sampling: gomaxprocs %d, peak heap %d", p.GOMAXPROCS, p.PeakHeapBytes)
	}

	s := st.PerfSummary()
	if s.RunsProfiled != 1 || s.EventsTotal != p.EventsTotal {
		t.Fatalf("perf summary %+v does not match run (%d events)", s, p.EventsTotal)
	}

	// Without Config.Perf the block is absent from the Result and its JSON.
	cfg2 := goldenConfig()
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Perf != nil {
		t.Fatal("Result.Perf non-nil without Config.Perf")
	}
	data, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"Perf"`)) {
		t.Fatal("disabled run's Result JSON contains a Perf key")
	}
}

// TestPerfDoesNotChangeReport: profiling is purely observational — the
// canonical serialized report of a profiled run is byte-identical to the
// unprofiled run, sequentially and through the worker pool.
func TestPerfDoesNotChangeReport(t *testing.T) {
	cfg := goldenConfig()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, cfg, base)

	pcfg := cfg
	pcfg.Perf = &PerfOptions{SampleEvery: 2}
	pcfg.Status = NewStatus()
	prof, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Config.Perf is json:"-" like Status, so even the report's config echo
	// and config hash are identical with profiling on.
	if got := reportBytes(t, pcfg, prof); !bytes.Equal(got, want) {
		t.Fatalf("profiled report differs from unprofiled (%d vs %d bytes)", len(got), len(want))
	}

	seeds := Seeds(1, 3)
	par, err := RunConfigs(context.Background(), seedConfigs(pcfg, seeds),
		ParallelOptions{Workers: len(seeds)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		seq, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := reportBytes(t, c, seq), reportBytes(t, c, par[i]); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: profiled parallel report differs from unprofiled sequential", s)
		}
		if par[i].Perf == nil {
			t.Fatalf("seed %d: parallel run lost its perf block", s)
		}
	}
}

// TestPerfStatusPlane: with Config.Perf and a status tracker, /api/perf
// serves the tracker's perf summary and /metrics carries a consistent
// hermes_perf_* family.
func TestPerfStatusPlane(t *testing.T) {
	st := NewStatus()
	cfg := goldenConfig()
	cfg.Perf = &PerfOptions{}
	cfg.Status = st
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := ServeStatus("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/api/perf")
	if err != nil {
		t.Fatal(err)
	}
	var s PerfSummary
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/perf status %d", resp.StatusCode)
	}
	if s.RunsProfiled != 1 || s.EventsTotal != res.Perf.EventsTotal {
		t.Fatalf("/api/perf summary %+v does not match the run (%d events)", s, res.Perf.EventsTotal)
	}
	if s.LastRun == nil || s.LastRun.EventsTotal != res.Perf.EventsTotal {
		t.Fatalf("/api/perf LastRun missing or stale: %+v", s.LastRun)
	}

	resp, err = http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	wantLine := "hermes_perf_events_total " + strconv.FormatUint(res.Perf.EventsTotal, 10) + "\n"
	if !strings.Contains(out, wantLine) {
		t.Fatalf("/metrics missing %q\n---\n%s", strings.TrimSpace(wantLine), out)
	}
	if !strings.Contains(out, "# TYPE hermes_perf_events_by_kind_total counter") ||
		!strings.Contains(out, `hermes_perf_events_by_kind_total{kind="`) {
		t.Fatalf("/metrics missing the per-kind perf family\n---\n%s", out)
	}
}

// TestPerfConcurrentSweep: profiled runs across the worker pool publish into
// one shared status tracker while another goroutine continuously reads its
// perf summary and metrics — the -race exercise for sampler and tracker
// concurrency.
func TestPerfConcurrentSweep(t *testing.T) {
	st := NewStatus()
	cfg := goldenConfig()
	cfg.Flows = 15
	cfg.Perf = &PerfOptions{SampleEvery: 4}
	cfg.Status = st

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				st.PerfSummary()
				st.WriteMetrics(io.Discard) //nolint:errcheck // io.Discard never fails
			}
		}
	}()

	seeds := Seeds(1, 4)
	if _, err := RunConfigs(context.Background(), seedConfigs(cfg, seeds),
		ParallelOptions{Workers: len(seeds)}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	if s := st.PerfSummary(); s.RunsProfiled != uint64(len(seeds)) {
		t.Fatalf("RunsProfiled = %d, want %d", s.RunsProfiled, len(seeds))
	}
}

// TestRearmedTimersKeepQueueShallow guards the engine's queue depth on the
// 4x4x8, 10 Gbps fabric that `hermes-sim -topology small` builds. A flow
// re-arms its 10 ms retransmission timer on every ACK that advances its
// window; moved in place, the timer keeps one queue entry, and this run's
// queue peaks at 797 entries. Cancelled and scheduled anew, each re-arm
// left a cancelled entry queued for the whole timeout, and the queue peaked
// at 35,831.
func TestRearmedTimersKeepQueueShallow(t *testing.T) {
	cfg := Config{
		Topology: SmallTopology(),
		Scheme:   SchemeHermes, Workload: "web-search", Load: 0.6, Flows: 100, Seed: 1,
		Perf: &PerfOptions{},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if peak := res.Perf.QueuePeak; peak >= 2000 {
		t.Fatalf("queue peak %d entries, want under 2,000", peak)
	}
}
