// Package suite is what the two bench commands share: the workloads, the
// digest that pins a run's outputs, the per-operation checks and the result
// line. Like the end-to-end runner it imports only the hermes facade and the
// standard library, so a refactor inside the simulator cannot break it.
package suite

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/hermes-repro/hermes"
)

const (
	// Flows sizes one timed operation: the paper's §5.3.1 point (8x8
	// leaf-spine, web-search, load 0.6) at a size where one run takes a few
	// seconds on a 2-vCPU machine.
	Flows = 1000
	// WarmupFlows sizes the untimed run that loads code and grows the heap
	// before anything is timed.
	WarmupFlows = 100
	// SetupSamples is how many set-up samples a runner takes at each point
	// of a run: before every timed operation and after the last.
	SetupSamples = 7
	// setupSampleNs is the least wall time one set-up sample covers. A
	// single set-up call takes a few hundred microseconds and allocates
	// about 200 KB, so calls are timed back to back until this has passed:
	// each sample then averages over the GC cycles the calls trigger.
	setupSampleNs = 10 * time.Millisecond
	// RefSamples is how many reference-kernel samples a runner takes at
	// each point of a run, after the set-up samples.
	RefSamples = 21
	// RefNominalS is one reference sample's wall time on the machine the
	// baselines were measured on (2-vCPU Intel Xeon at 2.1 GHz).
	RefNominalS = 0.008
	// SliceNs is the facade's scheduling slice: Run checks for completion,
	// cancellation and due checkpoints only on this grid.
	SliceNs = int64(10_000_000)
)

// Workload is one benchmark input: a run configuration and the operation
// timed on it.
type Workload struct {
	Name string
	// Scheme is the load balancer of the measured run.
	Scheme hermes.Scheme
	// Observed adds the spine-blackhole scenario and the builtin alert pack,
	// which turn on the flight recorder and recovery scoring.
	Observed bool
	// Resume makes the timed operation hermes.Restore of a checkpoint of
	// the run, taken at CheckpointAt, instead of hermes.Run.
	Resume bool
}

// Workloads lists every workload in the order the runners measure them.
// BENCHMARK.json and bench/README.md give the reason for each.
var Workloads = []Workload{
	{
		Name:   "fig12-hermes",
		Scheme: hermes.SchemeHermes,
	},
	{
		Name:   "fig12-ecmp",
		Scheme: hermes.SchemeECMP,
	},
	{
		Name:     "blackhole-observed",
		Scheme:   hermes.SchemeHermes,
		Observed: true,
	},
	{
		Name:   "soak-resume",
		Scheme: hermes.SchemeHermes,
		Resume: true,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Config is the run the workload measures (for a resume workload, the run
// whose checkpoint it restores).
func (w Workload) Config(seed int64, flows int) (hermes.Config, error) {
	topo := hermes.LargeScaleTopology()
	cfg := hermes.Config{
		Topology: topo,
		Scheme:   w.Scheme,
		Workload: "web-search",
		Load:     0.6,
		Flows:    flows,
		Seed:     seed,
	}
	if w.Observed {
		sc, err := hermes.BuiltinScenario("spine-blackhole", topo)
		if err != nil {
			return hermes.Config{}, err
		}
		cfg.Scenario = sc
		cfg.Alerts = &hermes.AlertsConfig{Builtin: true}
	}
	return cfg, nil
}

// CheckpointAt is the instant a resume workload's checkpoint is taken: 50 ms
// into a Flows-flow run, about half way, scaled with the flow count. It stays
// on the facade's slice grid, so checkpointing moves no slice boundary and
// the run's outputs stay those of the run without checkpoints.
func CheckpointAt(flows int) int64 {
	at := 50_000_000 * int64(flows) / Flows / SliceNs * SliceNs
	return max(at, SliceNs)
}

// SmallFlows is the smallest run the tests measure the workload at: the
// blackhole scenario's onset is at 20 ms, which a 40-flow run can end before.
func (w Workload) SmallFlows() int {
	if w.Observed {
		return 80
	}
	return 40
}

// Digest is the SHA-256 of what a run must reproduce exactly: its event
// count, simulated duration, FCT report and goodput.
func Digest(events uint64, simNs int64, fct any, goodputGbps float64) (string, error) {
	b, err := json.Marshal(struct {
		Events      uint64
		SimDuration int64
		FCT         any
		GoodputGbps float64
	}{events, simNs, fct, goodputGbps})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// resultDigest is the Digest of a facade result.
func resultDigest(res *hermes.Result) (string, error) {
	return Digest(res.Events, res.SimDuration, res.FCT, res.GoodputGbps)
}

// pinned holds the digests of the Flows-flow runs for seeds 1 and 2. A
// change that alters one changed what the simulator computes, not only how
// fast. soak-resume must reproduce the uninterrupted fig12-hermes run.
var pinned = map[string][2]string{
	"fig12-hermes":       {hermesSeed1, hermesSeed2},
	"fig12-ecmp":         {"01692c3236e97a6cc8c1fe36e9765c99026b3392c2c92b1daee41f9e6f191287", "733cc60bf2d92f721833d6dc4a50f77d44bc851ea14c30d88d8a59307760ed4f"},
	"blackhole-observed": {"18d5baef41c9a0867f1c9b2739cbe16ce69e5cfd3947256aa827d606983746bc", "d2326f8c569dbdd9ca5ead446ee8b0a0db32711e34c459616386afe91f9e7038"},
	"soak-resume":        {hermesSeed1, hermesSeed2},
}

const (
	hermesSeed1 = "9f4a5c50ab2dd214b38fef62b23bd48ddaa34fe47af0223b89149a178f0a7a84"
	hermesSeed2 = "ec07b0372cedf2e5ddd4f9ec8dd34c8d9b663ba565a44d1205a8b40cc5d36abd"
)

// pinnedDigest returns the digest pinned for the workload at this seed and flow
// count, if there is one.
func pinnedDigest(workload string, seed int64, flows int) (string, bool) {
	pins, ok := pinned[workload]
	if !ok || flows != Flows || seed < 1 || seed > 2 {
		return "", false
	}
	return pins[seed-1], true
}

// DeliveredBytes is the application payload a run delivered.
func DeliveredBytes(res *hermes.Result) float64 {
	return res.GoodputGbps * float64(res.SimDuration) / 8
}

// Args are the command-line arguments both commands take.
type Args struct {
	Workloads []Workload
	Seed      int64
	Seconds   time.Duration
	// Flows is always the package's Flows on the command line; only the
	// tests measure smaller runs.
	Flows int
	// Dir receives checkpoint files, .bench_build/run under the working
	// directory; each workload clears its own subdirectory when it ends.
	Dir string
}

// ParseArgs registers the shared flags on fs, next to any the command added
// itself, and parses args.
func ParseArgs(fs *flag.FlagSet, args []string) (Args, error) {
	workload := fs.String("workload", "", "workload to measure (default: all, in order)")
	seed := fs.Int64("seed", 1, "workload seed: the simulation seed of every run")
	seconds := fs.Float64("seconds", 12, "how long to keep starting timed operations")
	if err := fs.Parse(args); err != nil {
		return Args{}, err
	}
	if fs.NArg() > 0 {
		return Args{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 0 {
		return Args{}, fmt.Errorf("-seconds must be >= 0")
	}
	a := Args{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)), Flows: Flows,
		Dir: filepath.Join(".bench_build", "run")}
	if *workload == "" {
		a.Workloads = Workloads
	} else {
		w, err := Lookup(*workload)
		if err != nil {
			return Args{}, err
		}
		a.Workloads = []Workload{w}
	}
	return a, nil
}

// Plan is a prepared workload: the timed operation and the digest every
// operation must reproduce.
type Plan struct {
	W     Workload
	Seed  int64
	Flows int
	// Base is the measured run's configuration.
	Base hermes.Config
	// Op is one timed operation: hermes.Run of Base, or for a resume
	// workload hermes.Restore of Base's checkpoint.
	Op func() (*hermes.Result, error)

	want   string // digest every operation must reproduce; "" until the first sets it
	pinned bool
	dir    string

	ckpt     *hermes.CheckpointInfo
	ckptWall time.Duration
}

// Prepare does a workload's untimed set-up: a warm-up run and, for a resume
// workload, an uninterrupted reference run and the run that writes the
// checkpoint, both of which must reproduce the same digest.
func Prepare(w Workload, seed int64, flows int, dir string) (*Plan, error) {
	base, err := w.Config(seed, flows)
	if err != nil {
		return nil, err
	}
	p := &Plan{W: w, Seed: seed, Flows: flows, Base: base,
		dir: filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, seed))}
	p.want, p.pinned = pinnedDigest(w.Name, seed, flows)
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}

	// The warm-up drops the scenario: a run this short can end before the
	// scenario's onset, which the facade reports as an error.
	warm := base
	warm.Flows = min(WarmupFlows, flows)
	warm.Scenario = nil
	if _, err := hermes.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p.Op = p.Run
	if !w.Resume {
		return p, nil
	}

	ref, err := hermes.Run(base)
	if err := p.Check(ref, err); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if _, _, err := p.Checkpointed(); err != nil {
		return nil, err
	}
	path := p.ckpt.Path
	p.Op = func() (*hermes.Result, error) { return hermes.Restore(path) }
	return p, nil
}

// Run is hermes.Run of Base: the timed operation, except on a resume
// workload, where it is the run the checkpoint was taken from.
func (p *Plan) Run() (*hermes.Result, error) { return hermes.Run(p.Base) }

// Checkpointed returns the checkpoint of Base taken at CheckpointAt and the
// wall time of the run that wrote it, running Base with checkpointing on the
// first call. That run must reproduce the digest of the run without it.
func (p *Plan) Checkpointed() (hermes.CheckpointInfo, time.Duration, error) {
	if p.ckpt != nil {
		return *p.ckpt, p.ckptWall, nil
	}
	cfg := p.Base
	cfg.Checkpoint = &hermes.CheckpointConfig{Dir: p.dir, AtNs: []int64{CheckpointAt(p.Flows)}}
	start := time.Now()
	res, err := hermes.Run(cfg)
	wall := time.Since(start)
	if err := p.Check(res, err); err != nil {
		return hermes.CheckpointInfo{}, 0, fmt.Errorf("checkpointing run: %w", err)
	}
	if len(res.Checkpoints) != 1 {
		return hermes.CheckpointInfo{}, 0, fmt.Errorf("checkpointing run wrote %d checkpoints, want 1 at t=%dns (the run ended at t=%dns)",
			len(res.Checkpoints), CheckpointAt(p.Flows), res.SimDuration)
	}
	p.ckpt, p.ckptWall = &res.Checkpoints[0], wall
	return *p.ckpt, wall, nil
}

// Digest is the digest every operation of the plan reproduces, and whether
// it is pinned.
func (p *Plan) Digest() (string, bool) { return p.want, p.pinned }

// Close removes the plan's checkpoint files.
func (p *Plan) Close() error { return os.RemoveAll(p.dir) }

// Check returns why an operation failed, or nil. An operation fails when it
// returns an error, when its digest differs from the pinned one or from the
// other operations of the plan, or when a workload without failures leaves
// flows unfinished.
func (p *Plan) Check(res *hermes.Result, err error) error {
	if err != nil {
		return err
	}
	d, err := resultDigest(res)
	if err != nil {
		return err
	}
	if err := p.CheckDigest(d); err != nil {
		return err
	}
	if !p.W.Observed && res.FCT.Unfinished > 0 {
		return fmt.Errorf("%d of %d flows unfinished on a workload without failures", res.FCT.Unfinished, res.FCT.Flows)
	}
	return nil
}

// CheckDigest compares one operation's digest with the plan's.
func (p *Plan) CheckDigest(d string) error {
	switch {
	case p.want == "":
		p.want = d
	case d != p.want && p.pinned:
		return fmt.Errorf("digest %s differs from the one pinned for seed %d: %s", d, p.Seed, p.want)
	case d != p.want:
		return fmt.Errorf("digest %s differs from the plan's earlier runs: %s", d, p.want)
	}
	return nil
}

// SetupTimes takes n set-up samples, from a freshly collected heap. A sample
// is the mean wall time of calls to the timed operation under an
// already-cancelled run context, made back to back for at least
// setupSampleNs. Each call builds the whole simulation and returns
// context.Canceled before the first event, so its wall time is set-up alone.
func (p *Plan) SetupTimes(n int) ([]float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runtime.GC()
	hermes.SetDefaultRunContext(ctx)
	defer hermes.SetDefaultRunContext(nil)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < setupSampleNs {
			if _, err := p.Op(); !errors.Is(err, context.Canceled) {
				return nil, fmt.Errorf("set-up call returned %v, want context.Canceled", err)
			}
			calls++
		}
		out = append(out, time.Since(start).Seconds()/float64(calls))
	}
	return out, nil
}

// The reference kernel measures the machine's speed at one point of a run.
// The host the benchmark runs on drifts by up to 50% over minutes, and the
// drift slows every part of the process alike, CPU time included. The
// kernel is fixed work shaped like the simulator's hot path, which is
// popping and pushing a pointer heap of pending events: refEntries entries,
// about the engine's queue peak on the fig12 workloads, and refCycles
// pop/push cycles per sample. It is built only from the standard library,
// so no change to the simulator moves it.
const (
	refEntries = 170_000
	refCycles  = 20_000
)

type refEvent struct {
	at, seq int64
	arg     [4]int64
}

type refHeap struct {
	h   []*refEvent
	x   uint64 // xorshift state
	seq int64
}

func (r *refHeap) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

func refLess(a, b *refEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

func (r *refHeap) push(e *refEvent) {
	r.seq++
	e.seq = r.seq
	r.h = append(r.h, e)
	h := r.h
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !refLess(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

func (r *refHeap) pop() *refEvent {
	h := r.h
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refLess(h[c+1], h[c]) {
			c++
		}
		if !refLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	r.h = h
	return top
}

// ReferenceTimes builds the reference heap, the same every time, and returns
// the wall times in seconds of n samples of refCycles pop/push cycles. The
// heap is garbage once it returns, so the next timed operation's collection
// frees it and peak_heap_mb never sees it.
func ReferenceTimes(n int) []float64 {
	r := &refHeap{h: make([]*refEvent, 0, refEntries+1), x: 88172645463325252}
	for i := 0; i < refEntries; i++ {
		r.push(&refEvent{at: int64(r.next() % 1_000_000)})
	}
	out := make([]float64, n)
	for s := range out {
		start := time.Now()
		for i := 0; i < refCycles; i++ {
			e := r.pop()
			r.push(&refEvent{at: e.at + 1 + int64(r.next()%20_000)})
		}
		out[s] = time.Since(start).Seconds()
	}
	return out
}

// Timed is one timed operation and what the Go runtime did during it.
type Timed struct {
	Res      *hermes.Result
	Err      error
	Wall     time.Duration
	PeakHeap uint64 // peak of live and unswept heap objects, sampled every 5 ms
	Alloc    uint64 // bytes allocated
	Mallocs  uint64
	GCs      uint32
}

// RunTimed times one call of op, p.Op or p.Run, from a freshly collected
// heap.
func RunTimed(op func() (*hermes.Result, error)) Timed {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	res, err := op()
	wall := time.Since(start)
	peak := stop()
	runtime.ReadMemStats(&after)
	return Timed{Res: res, Err: err, Wall: wall, PeakHeap: peak,
		Alloc:   after.TotalAlloc - before.TotalAlloc,
		Mallocs: after.Mallocs - before.Mallocs,
		GCs:     after.NumGC - before.NumGC}
}

// startHeapSampler samples the heap's object bytes on its own goroutine
// every interval. The returned stop function ends the goroutine, waits for
// it, and returns the peak.
func startHeapSampler(interval time.Duration) (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	quit := make(chan struct{})
	done := make(chan uint64)
	go func() {
		peak := read()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, read())
			case <-quit:
				done <- max(peak, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

// Median returns the median of xs, or 0 when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Metric is one measured value in the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one workload's outcome: a readable line per metric and note,
// then the result line, which is always printed last.
type Report struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	lines     []string
}

// Add records a metric; note, when not empty, follows it on its readable
// line (sample counts, what it was measured on).
func (r *Report) Add(name, unit string, v float64, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-30s %14.6g %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// Note adds a readable line that is not a metric.
func (r *Report) Note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// Fail counts one failed operation and says why on stderr.
func (r *Report) Fail(what string, err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "%s: %s failed: %v\n", r.Workload, what, err)
}

// Print writes the readable lines and then the result line.
func (r *Report) Print(w io.Writer) error {
	fmt.Fprintf(w, "== %s\n", r.Workload)
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
