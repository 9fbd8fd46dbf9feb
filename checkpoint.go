// Checkpoint plane: versioned snapshot/restore for whole experiments.
//
// The engine's event queue holds live closures, so a checkpoint cannot be a
// structural dump of the heap. Instead a checkpoint is a *verified replay
// recipe* (internal/checkpoint): the complete Config and seed rebuild the
// run, replay carries it to the captured instant, and the stored state
// sections act as an oracle — any divergence from the re-captured state is a
// typed StateMismatchError, never a silently wrong resume. The price is that
// a v1 restore costs one replay of the prefix; the payoff is that restore
// correctness is checked on every single resume.
//
// Byte-identical resume contract: checkpoint instants are folded into the
// scheduling-slice boundary sequence, which is then a pure function of the
// config. A restored run keeps Config.Checkpoint, so it walks the identical
// boundary sequence, re-writes byte-identical checkpoint files over the
// originals, and ends with a byte-identical Result — the property the CI
// soak-smoke job asserts with cmp(1). Until its replay verifies, a restored
// run overwrites no checkpoint file: one that already exists must hold
// exactly the bytes the replay would write, or the restore fails with a
// StateMismatchError and leaves the file as it was. An interrupt in that
// window writes nothing either; its error names the file being restored.
package hermes

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"github.com/hermes-repro/hermes/internal/checkpoint"
	"github.com/hermes-repro/hermes/internal/sim"
	"github.com/hermes-repro/hermes/internal/statusd"
)

// CheckpointConfig arms the checkpoint plane for a run. A Dir with neither
// IntervalNs nor AtNs is the interrupt-only mode: nothing is written unless
// the run context is cancelled.
type CheckpointConfig struct {
	// Dir receives the checkpoint files (created if missing). The directory
	// path is part of the config fingerprint, so reference and resumed runs
	// must name it identically for byte-identical reports.
	Dir string
	// IntervalNs writes a checkpoint every IntervalNs of virtual time
	// (0 = no periodic checkpoints).
	IntervalNs int64 `json:",omitempty"`
	// AtNs writes checkpoints at these explicit virtual instants, each > 0.
	// Composes with IntervalNs.
	AtNs []int64 `json:",omitempty"`
}

// CheckpointInfo describes one checkpoint file a run wrote.
type CheckpointInfo struct {
	SimTimeNs int64  `json:"sim_time_ns"`
	Path      string `json:"path"`
	Bytes     int    `json:"bytes"`
	StateSHA  string `json:"state_sha"`
}

// InterruptedError reports a checkpointed run stopped through its context;
// resume from Checkpoint.Path (or the run's checkpoint directory) with
// Restore. Checkpoint is the final interrupt checkpoint the run wrote, or,
// for a Restore interrupted before its replay verified, the checkpoint it
// was restoring: such a restore writes nothing. Unwrap yields the context
// error, so errors.Is(err, context.Canceled) still classifies the cause.
type InterruptedError struct {
	Checkpoint CheckpointInfo
	Err        error
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("hermes: run interrupted at t=%dns (checkpoint %s): %v",
		e.Checkpoint.SimTimeNs, e.Checkpoint.Path, e.Err)
}

func (e *InterruptedError) Unwrap() error { return e.Err }

// defaultRunCtx holds the SetDefaultRunContext process default, mirroring
// the SetDefaultStatus/SetDefaultWorkers precedent.
var defaultRunCtx atomic.Value // ctxBox

type ctxBox struct{ ctx context.Context }

// SetDefaultRunContext installs a process-wide context every subsequent Run
// observes at its scheduling-slice boundaries: when the context is
// cancelled, runs stop with the context's error — or, for checkpointed
// configs, write an interrupt checkpoint first and return an
// *InterruptedError. This is how the CLIs turn SIGINT/SIGTERM into a
// resumable stop. Pass nil to uninstall.
func SetDefaultRunContext(ctx context.Context) {
	defaultRunCtx.Store(ctxBox{ctx: ctx})
}

// defaultRunContext is the context of a run or pool given none: the
// SetDefaultRunContext default, else Background.
func defaultRunContext() context.Context {
	if v, ok := defaultRunCtx.Load().(ctxBox); ok && v.ctx != nil {
		return v.ctx
	}
	return context.Background()
}

// ckptPlan is a run's live checkpoint schedule: the canonical config bytes
// and fingerprint, the merged interval/explicit-instant cursor, and the
// record of what was written.
type ckptPlan struct {
	cfg     *CheckpointConfig
	cfgJSON json.RawMessage
	cfgSHA  string
	at      []int64 // sorted, deduped explicit instants
	atIdx   int
	nextIv  int64 // next interval instant, 0 = no interval
	infos   []CheckpointInfo
}

func newCkptPlan(cfg *Config) (*ckptPlan, error) {
	cc := cfg.Checkpoint
	if cc.Dir == "" {
		return nil, fmt.Errorf("hermes: Checkpoint.Dir is required")
	}
	if cc.IntervalNs < 0 {
		return nil, fmt.Errorf("hermes: Checkpoint.IntervalNs %d must be >= 0", cc.IntervalNs)
	}
	at := append([]int64(nil), cc.AtNs...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	dedup := at[:0]
	for _, t := range at {
		if t <= 0 {
			return nil, fmt.Errorf("hermes: Checkpoint.AtNs instants must be positive (got %d)", t)
		}
		if len(dedup) == 0 || dedup[len(dedup)-1] != t {
			dedup = append(dedup, t)
		}
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("hermes: checkpoint config: %w", err)
	}
	p := &ckptPlan{cfg: cc, cfgJSON: b, cfgSHA: checkpoint.SHA(b), at: dedup}
	if cc.IntervalNs > 0 {
		p.nextIv = cc.IntervalNs
	}
	return p, nil
}

// nextDue returns the next scheduled checkpoint instant, merging the
// explicit instants with the interval recurrence.
func (p *ckptPlan) nextDue() (int64, bool) {
	due := int64(0)
	if p.atIdx < len(p.at) {
		due = p.at[p.atIdx]
	}
	if p.nextIv > 0 && (due == 0 || p.nextIv < due) {
		due = p.nextIv
	}
	return due, due > 0
}

// advance retires the instant just written; a coinciding explicit instant
// and interval tick retire together (one file, not two).
func (p *ckptPlan) advance(due int64) {
	if p.atIdx < len(p.at) && p.at[p.atIdx] == due {
		p.atIdx++
	}
	if p.nextIv > 0 && p.nextIv == due {
		p.nextIv += p.cfg.IntervalNs
	}
}

// replayPlan carries a restored checkpoint through runWith: replay to `to`,
// verify the re-captured state against snap, then (for Fork) mutate the run.
// from describes the checkpoint file it was read from.
type replayPlan struct {
	to   sim.Time
	snap *checkpoint.Snapshot
	from CheckpointInfo
	fork *ForkOptions
	done bool
}

// Snapshot section bodies. Every field is event-driven state — invariant to
// how the run between events is sliced into scheduling horizons — which is
// what makes loop-top capture and replay verification consistent. The loop's
// own boundary bookkeeping (lastArrival) is deliberately excluded.
type engineSnap struct {
	NowNs         int64  `json:"now_ns"`
	Seq           uint64 `json:"seq"`
	Fired         uint64 `json:"fired"`
	PendingByKind []int  `json:"pending_by_kind"`
	Cancelled     int    `json:"cancelled"`
}

type rngSnap struct {
	Draws uint64 `json:"draws"`
}

type workloadSnap struct {
	Started        int   `json:"started"`
	FlowsDone      int64 `json:"flows_done"`
	DeliveredBytes int64 `json:"delivered_bytes"`
}

// captureSnapshot serializes every observable state section at the current
// instant. Read-only: capturing must never perturb the run it captures.
func (r *run) captureSnapshot() (*checkpoint.Snapshot, error) {
	var snapErr error
	put := func(dst *json.RawMessage, v any) {
		if snapErr != nil {
			return
		}
		b, err := json.Marshal(v)
		if err != nil {
			snapErr = err
			return
		}
		*dst = b
	}
	s := &checkpoint.Snapshot{}
	byKind, cancelled := r.eng.PendingCensus()
	put(&s.Engine, engineSnap{
		NowNs: int64(r.eng.Now()), Seq: r.eng.Seq(), Fired: r.eng.Fired(),
		PendingByKind: byKind[:], Cancelled: cancelled,
	})
	put(&s.RNG, rngSnap{Draws: r.rng.Draws()})
	put(&s.Net, r.nw.Dump())
	put(&s.Transport, r.tr.Dump())
	if r.w.dumpState != nil {
		if ds := r.w.dumpState(); ds != nil {
			put(&s.Scheme, ds)
		}
	}
	put(&s.Workload, workloadSnap{
		Started: r.gen.Started(), FlowsDone: r.flowsDone, DeliveredBytes: r.deliveredBytes,
	})
	if r.runner != nil {
		put(&s.Chaos, r.runner.Dump())
	}
	if snapErr != nil {
		return nil, fmt.Errorf("hermes: checkpoint capture: %w", snapErr)
	}
	return s, nil
}

// writeCheckpoint captures the current state and writes one checkpoint file.
// kind is "scheduled" or "interrupt" (status-plane annotation only; the file
// bytes are identical either way).
func (r *run) writeCheckpoint(kind string) (CheckpointInfo, error) {
	snap, err := r.captureSnapshot()
	if err != nil {
		return CheckpointInfo{}, err
	}
	state, err := checkpoint.EncodeState(snap)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("hermes: %w", err)
	}
	f := &checkpoint.File{
		Seed:      r.cfg.Seed,
		SimTimeNs: int64(r.eng.Now()),
		Config:    r.ckpt.cfgJSON,
		State:     state,
	}
	path := filepath.Join(r.ckpt.cfg.Dir, checkpoint.Filename(r.ckpt.cfgSHA, f.SimTimeNs))
	n := 0
	if r.replay != nil && !r.replay.done {
		if n, err = keepCheckpoint(path, f, snap); err != nil {
			return CheckpointInfo{}, err
		}
	}
	if n == 0 {
		if n, err = checkpoint.WriteFile(path, f); err != nil {
			return CheckpointInfo{}, fmt.Errorf("hermes: %w", err)
		}
	}
	info := CheckpointInfo{SimTimeNs: f.SimTimeNs, Path: path, Bytes: n, StateSHA: f.StateSHA}
	r.st.RecordCheckpoint(statusd.CheckpointEvent{
		Run: r.runLabel, Kind: kind, SimTimeNs: f.SimTimeNs, Path: path, Bytes: n,
	})
	return info, nil
}

// keepCheckpoint guards the checkpoint files of a run that has not yet
// verified its replay. A file already at path must hold the bytes f encodes
// to; keepCheckpoint then leaves it as it is and returns its size. A file
// holding other state means the replay diverged before reaching its target:
// the error is a StateMismatchError naming the sections that differ, and
// the file stays untouched. It returns 0 when there is no file to keep.
func keepCheckpoint(path string, f *checkpoint.File, snap *checkpoint.Snapshot) (int, error) {
	old, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("hermes: %w", err)
	}
	b, err := f.Encode()
	if err != nil {
		return 0, fmt.Errorf("hermes: %w", err)
	}
	if bytes.Equal(old, b) {
		return len(old), nil
	}
	kept, err := checkpoint.Decode(old)
	if err != nil {
		return 0, fmt.Errorf("hermes: %s: %w", path, err)
	}
	want, err := kept.DecodeState()
	if err != nil {
		return 0, fmt.Errorf("hermes: %s: %w", path, err)
	}
	return 0, &checkpoint.StateMismatchError{SimTimeNs: f.SimTimeNs, Sections: checkpoint.Diff(want, snap)}
}

// fireDueCheckpoints writes every scheduled checkpoint whose instant has
// been reached. The loop clamps horizons to nextDue, so the engine stops
// exactly on each due instant.
func (r *run) fireDueCheckpoints() error {
	if r.ckpt == nil {
		return nil
	}
	for {
		due, ok := r.ckpt.nextDue()
		if !ok || sim.Time(due) > r.eng.Now() {
			return nil
		}
		info, err := r.writeCheckpoint("scheduled")
		if err != nil {
			return err
		}
		r.ckpt.advance(due)
		r.ckpt.infos = append(r.ckpt.infos, info)
	}
}

// interrupted turns a context cancellation into a resumable stop: for
// checkpointed runs it writes a final interrupt checkpoint and wraps the
// cause in an *InterruptedError; otherwise the cause passes through. A
// restore whose replay has not verified yet writes nothing: the checkpoint
// it is restoring still resumes the run, and its error names that file.
func (r *run) interrupted(cause error) error {
	if r.ckpt == nil {
		return cause
	}
	if r.replay != nil && !r.replay.done {
		return &InterruptedError{Checkpoint: r.replay.from, Err: cause}
	}
	info, err := r.writeCheckpoint("interrupt")
	if err != nil {
		return errors.Join(cause, err)
	}
	return &InterruptedError{Checkpoint: info, Err: cause}
}

// verifyReplay re-captures the state at the checkpoint instant and diffs it
// against the stored oracle; only a clean diff lets the run continue (and,
// for Fork, mutates the run). A divergence means the determinism contract
// broke — refusing here is the whole point of checkpoint-by-verified-replay.
func (r *run) verifyReplay() error {
	got, err := r.captureSnapshot()
	if err != nil {
		return err
	}
	if diffs := checkpoint.Diff(r.replay.snap, got); len(diffs) > 0 {
		return &checkpoint.StateMismatchError{SimTimeNs: int64(r.eng.Now()), Sections: diffs}
	}
	r.replay.done = true
	if f := r.replay.fork; f != nil {
		r.applyFork(f)
	}
	return nil
}

// applyFork mutates the verified run at the fork instant: swap the scheme
// on every endpoint and/or graft the scenario validate lowered onto the
// timeline.
func (r *run) applyFork(f *ForkOptions) {
	if f.Scheme != "" && f.Scheme != r.cfg.Scheme {
		newCfg := r.cfg
		newCfg.Scheme = f.Scheme
		w2 := r.wireScheme(newCfg)
		for _, ep := range r.tr.Endpoints {
			ep.SetBalancer(w2.balancerFor(ep.Host()))
		}
		// Retire the old scheme's periodic machinery (probe loops, monitor
		// sweeps) before the new scheme's spins up.
		if r.w.stop != nil {
			r.w.stop()
		}
		w2.afterTransport(r.nw, r.rng)
		r.w = w2
		r.cfg.Scheme = f.Scheme
		setCarriage(&r.tr.Opts, &r.cfg)
		if r.tr.Opts.ReplicateBelow > 0 {
			r.tr.DeclareRepFlowMetrics(r.plane())
		}
	}
	if r.graft != nil {
		r.installScenario(r.graft)
	}
}

// forkableScheme gates scheme swaps: switch-resident schemes keep state in
// the fabric that the fork cannot unwire or rebuild mid-run.
func forkableScheme(s Scheme) error {
	switch s {
	case SchemeLetFlow, SchemeDRILL, SchemeCONGA, SchemeHULA:
		return fmt.Errorf("hermes: scheme %q keeps in-switch state and cannot be swapped mid-run; fork requires host-steered schemes on both sides", s)
	}
	return knownScheme(s)
}

// loadReplay reads a checkpoint from a file path, or from the most advanced
// valid checkpoint in a directory, and turns it into the Config and
// replayPlan runWith needs. The config is round-tripped through this build's
// schema and re-fingerprinted: if the schema drifted since the file was
// written, the bytes change and the restore refuses loudly instead of
// silently replaying a different experiment.
func loadReplay(path string) (Config, *replayPlan, error) {
	path, err := checkpoint.Resolve(path)
	if err != nil {
		return Config{}, nil, fmt.Errorf("hermes: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, fmt.Errorf("hermes: %w", err)
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		return Config{}, nil, err
	}
	var cfg Config
	if err := json.Unmarshal(f.Config, &cfg); err != nil {
		return Config{}, nil, &checkpoint.CorruptError{Reason: "config section", Err: err}
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return Config{}, nil, fmt.Errorf("hermes: checkpoint config: %w", err)
	}
	if got := checkpoint.SHA(b); got != f.ConfigSHA {
		return Config{}, nil, &checkpoint.ConfigMismatchError{Got: got, Want: f.ConfigSHA}
	}
	if f.Seed != cfg.Seed {
		return Config{}, nil, &checkpoint.CorruptError{Reason: fmt.Sprintf(
			"envelope seed %d disagrees with config seed %d", f.Seed, cfg.Seed)}
	}
	snap, err := f.DecodeState()
	if err != nil {
		return Config{}, nil, err
	}
	from := CheckpointInfo{SimTimeNs: f.SimTimeNs, Path: path, Bytes: len(data), StateSHA: f.StateSHA}
	return cfg, &replayPlan{to: sim.Time(f.SimTimeNs), snap: snap, from: from}, nil
}

// Restore resumes the run captured in a checkpoint. path may be a checkpoint
// file or a directory (the most advanced valid checkpoint wins). The run is
// rebuilt from the embedded config, replayed to the captured instant,
// verified section-by-section against the stored state, and then continued
// to completion; the returned Result is byte-identical to the uninterrupted
// run's. Checkpointing stays armed: until the replay verifies, each
// scheduled file that already exists is checked byte for byte and kept, and
// a file that differs fails the restore with a StateMismatchError and is
// left untouched; after it, the resumed run re-writes the schedule's files
// (byte-identical collisions with the originals).
func Restore(path string) (*Result, error) {
	cfg, rp, err := loadReplay(path)
	if err != nil {
		return nil, err
	}
	return runWith(cfg, rp)
}

// ForkOptions selects what a Fork changes at the checkpoint instant.
type ForkOptions struct {
	// Scheme, when non-empty and different from the captured run's, swaps
	// the load balancing scheme at the fork instant: every endpoint gets the
	// new balancer, the old scheme's periodic machinery stops, the new
	// scheme's starts. Both schemes must be host-steered (no
	// letflow/drill/conga/hula).
	Scheme Scheme
	// Scenario, when non-nil, grafts a failure timeline onto the forked run.
	// The captured run must not already carry one, and every event must
	// onset strictly after the checkpoint instant. The fork's flight ring
	// records from t=0, as any run's does, so the scenario's recovery is
	// scored against a baseline that covers the replayed prefix.
	Scenario *Scenario
}

// Fork replays a checkpoint like Restore, then runs a what-if: the same
// prefix of history, a different future. Use it to ask "what would REPS have
// done from here?" or to drop a failure onto a healthy run's timeline one
// instant before it mattered. The fork is a new experiment: its Result is
// not comparable byte-for-byte to the parent's, and it writes no checkpoints
// of its own.
func Fork(path string, opts ForkOptions) (*Result, error) {
	cfg, rp, err := loadReplay(path)
	if err != nil {
		return nil, err
	}
	if opts.Scheme == "" && opts.Scenario == nil {
		return nil, fmt.Errorf("hermes: Fork needs a new Scheme or a Scenario; use Restore to resume unchanged")
	}
	if opts.Scheme != "" && opts.Scheme != cfg.Scheme {
		if err := forkableScheme(cfg.Scheme); err != nil {
			return nil, err
		}
		if err := forkableScheme(opts.Scheme); err != nil {
			return nil, err
		}
	}
	cfg.Checkpoint = nil
	rp.fork = &opts
	return runWith(cfg, rp)
}
