// Package checkpoint defines the on-disk codec for full-simulation
// snapshots: the `hermes-ckpt/v1` envelope. The simulator's event queue
// holds live closures, so a checkpoint is not a structural dump of the heap;
// it is a verified replay recipe. A File carries everything needed to
// rebuild the run (the complete facade Config and the seed), the virtual
// instant the snapshot was taken, and a Snapshot of every observable state
// section at that instant — engine clock and queue census, RNG stream
// position, fabric cable rates and port counters, transport flows with
// their RTO deadlines, scheme state (Hermes path tables, REPS entropy
// caches), workload cursor, and active chaos scopes. Restore replays the
// recipe to the instant and then diffs the re-captured state against the
// stored sections; any divergence is a typed StateMismatchError, never a
// silently wrong resume. Byte-identical resumes follow from the engine's
// determinism contract (same seed, same config, same event order).
//
// The package is deliberately stdlib-only and knows nothing about the
// simulator's types: every section is a pre-marshaled json.RawMessage, so
// the dependency arrow points from the simulation packages into here and
// never back.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Magic identifies a hermes checkpoint file; Version is the codec version
// this package writes and the only one it restores.
const (
	Magic   = "hermes-ckpt"
	Version = 1
)

// ErrTruncated reports a file that ends before the envelope is complete —
// the classic kill-during-write artifact. (WriteFile's temp-and-rename makes
// this unreachable for its own writes; the error exists for foreign files.)
var ErrTruncated = errors.New("checkpoint: truncated file")

// CorruptError reports a file that is not a valid checkpoint: bad JSON, a
// foreign magic string, a failed integrity hash, or missing sections.
type CorruptError struct {
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("checkpoint: corrupt: %s: %v", e.Reason, e.Err)
	}
	return "checkpoint: corrupt: " + e.Reason
}

func (e *CorruptError) Unwrap() error { return e.Err }

// VersionError reports a version-skewed file: a valid envelope written by a
// codec this package does not speak.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: version %d not supported (this codec speaks v%d)", e.Got, e.Want)
}

// ConfigMismatchError reports a restore against a different configuration
// than the one the checkpoint was captured under. The SHAs are hex SHA-256
// of the canonical config JSON.
type ConfigMismatchError struct {
	Got, Want string
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("checkpoint: config fingerprint mismatch: file was captured under %s, restoring under %s",
		short(e.Want), short(e.Got))
}

// SectionDiff is one diverged state section: the name and both serialized
// values, for post-mortems.
type SectionDiff struct {
	Section string `json:"section"`
	Want    string `json:"want"`
	Got     string `json:"got"`
}

// StateMismatchError reports that replaying the checkpoint's recipe did not
// reproduce the captured state — the determinism contract is broken, so the
// restore is refused rather than resumed wrong.
type StateMismatchError struct {
	SimTimeNs int64
	Sections  []SectionDiff
}

func (e *StateMismatchError) Error() string {
	names := make([]string, len(e.Sections))
	for i, d := range e.Sections {
		names[i] = d.Section
	}
	return fmt.Sprintf("checkpoint: replay to t=%dns diverged from captured state in sections [%s]",
		e.SimTimeNs, strings.Join(names, " "))
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// Snapshot is the full observable simulation state at one instant, one
// pre-marshaled section per state-owning package. Field order is fixed and
// encoding/json emits struct fields in declaration order, so the serialized
// form is byte-stable.
type Snapshot struct {
	Engine    json.RawMessage `json:"engine"`
	RNG       json.RawMessage `json:"rng"`
	Net       json.RawMessage `json:"net"`
	Transport json.RawMessage `json:"transport"`
	Scheme    json.RawMessage `json:"scheme,omitempty"`
	Workload  json.RawMessage `json:"workload"`
	Chaos     json.RawMessage `json:"chaos,omitempty"`
}

// File is the hermes-ckpt envelope. Config is the complete run
// configuration (the replay recipe); ConfigSHA fingerprints it so restoring
// under a drifted config fails loudly; State is the marshaled Snapshot and
// StateSHA its integrity hash.
type File struct {
	Magic     string          `json:"magic"`
	Version   int             `json:"version"`
	ConfigSHA string          `json:"config_sha"`
	Seed      int64           `json:"seed"`
	SimTimeNs int64           `json:"sim_time_ns"`
	Config    json.RawMessage `json:"config"`
	State     json.RawMessage `json:"state"`
	StateSHA  string          `json:"state_sha"`
}

// SHA returns the hex SHA-256 of b — the fingerprint convention for both
// ConfigSHA and StateSHA.
func SHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EncodeState marshals a snapshot into the canonical State bytes.
func EncodeState(s *Snapshot) (json.RawMessage, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal state: %w", err)
	}
	return b, nil
}

// DecodeState unmarshals the envelope's State section.
func (f *File) DecodeState() (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(f.State, &s); err != nil {
		return nil, &CorruptError{Reason: "state section", Err: err}
	}
	return &s, nil
}

// Encode validates and canonicalizes the envelope (stamping Magic, Version,
// ConfigSHA and StateSHA) and returns its serialized bytes. The same File
// always encodes to the same bytes.
func (f *File) Encode() ([]byte, error) {
	if len(f.Config) == 0 {
		return nil, &CorruptError{Reason: "empty config section"}
	}
	if len(f.State) == 0 {
		return nil, &CorruptError{Reason: "empty state section"}
	}
	f.Magic = Magic
	f.Version = Version
	f.ConfigSHA = SHA(f.Config)
	f.StateSHA = SHA(f.State)
	b, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal envelope: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses and verifies checkpoint bytes. Truncated input yields
// ErrTruncated, anything structurally wrong (bad JSON, wrong magic, hash
// mismatch, missing sections) a *CorruptError, and a valid envelope from a
// different codec a *VersionError — typed, never a panic.
func Decode(data []byte) (*File, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) && int(syn.Offset) >= len(trimRight(data)) {
			return nil, ErrTruncated
		}
		if strings.Contains(err.Error(), "unexpected end of JSON input") {
			return nil, ErrTruncated
		}
		return nil, &CorruptError{Reason: "envelope is not valid JSON", Err: err}
	}
	if f.Magic != Magic {
		return nil, &CorruptError{Reason: fmt.Sprintf("magic %q is not %q", f.Magic, Magic)}
	}
	if f.Version != Version {
		return nil, &VersionError{Got: f.Version, Want: Version}
	}
	if len(f.Config) == 0 {
		return nil, &CorruptError{Reason: "missing config section"}
	}
	if len(f.State) == 0 {
		return nil, &CorruptError{Reason: "missing state section"}
	}
	if got := SHA(f.Config); got != f.ConfigSHA {
		return nil, &CorruptError{Reason: fmt.Sprintf(
			"config hash %s does not match recorded %s", short(got), short(f.ConfigSHA))}
	}
	if got := SHA(f.State); got != f.StateSHA {
		return nil, &CorruptError{Reason: fmt.Sprintf(
			"state hash %s does not match recorded %s (bit rot or tamper)", short(got), short(f.StateSHA))}
	}
	if f.SimTimeNs < 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("negative sim time %d", f.SimTimeNs)}
	}
	return &f, nil
}

func trimRight(b []byte) []byte {
	for len(b) > 0 {
		switch b[len(b)-1] {
		case ' ', '\t', '\n', '\r':
			b = b[:len(b)-1]
		default:
			return b
		}
	}
	return b
}

// ReadFile loads and verifies a checkpoint from disk.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}

// WriteFile encodes the envelope and writes it atomically (temp file and
// rename), so a kill mid-write never leaves a truncated checkpoint behind.
// It returns the encoded size.
func WriteFile(path string, f *File) (int, error) {
	b, err := f.Encode()
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return len(b), nil
}

// Filename is the canonical checkpoint file name for a run at one instant:
// ckpt-<config sha prefix>-t<sim time ns>.ckpt. Zero-padding keeps
// lexicographic order equal to time order, and the config prefix keeps
// concurrent runs (a chaos matrix pool) from colliding in one directory.
func Filename(configSHA string, simTimeNs int64) string {
	return fmt.Sprintf("ckpt-%s-t%012d.ckpt", short(configSHA), simTimeNs)
}

// Resolve names the checkpoint file path refers to: path itself, or the
// latest valid checkpoint in it when path is a directory.
func Resolve(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if fi.IsDir() {
		return Latest(path)
	}
	return path, nil
}

// Latest scans dir for checkpoint files and returns the path of the one
// with the greatest sim time (ties broken by config fingerprint for
// determinism). Unreadable or foreign files are skipped; an empty directory
// is an error.
func Latest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	type cand struct {
		path string
		at   int64
		sha  string
	}
	var best *cand
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		f, err := ReadFile(p)
		if err != nil {
			continue
		}
		c := &cand{path: p, at: f.SimTimeNs, sha: f.ConfigSHA}
		if best == nil || c.at > best.at || (c.at == best.at && c.sha > best.sha) {
			best = c
		}
	}
	if best == nil {
		return "", fmt.Errorf("checkpoint: no valid checkpoint files in %s", dir)
	}
	return best.path, nil
}

// Diff compares two snapshots section by section and returns the diverged
// sections (nil when identical). Comparison is on the raw bytes: the dumps
// are produced by deterministic marshalers, so byte equality is the
// contract.
func Diff(want, got *Snapshot) []SectionDiff {
	var out []SectionDiff
	add := func(name string, w, g json.RawMessage) {
		if string(w) != string(g) {
			out = append(out, SectionDiff{Section: name, Want: string(w), Got: string(g)})
		}
	}
	add("engine", want.Engine, got.Engine)
	add("rng", want.RNG, got.RNG)
	add("net", want.Net, got.Net)
	add("transport", want.Transport, got.Transport)
	add("scheme", want.Scheme, got.Scheme)
	add("workload", want.Workload, got.Workload)
	add("chaos", want.Chaos, got.Chaos)
	sort.Slice(out, func(i, j int) bool { return out[i].Section < out[j].Section })
	return out
}
