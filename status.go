package hermes

import (
	"sync/atomic"

	"github.com/hermes-repro/hermes/internal/statusd"
	"github.com/hermes-repro/hermes/internal/telemetry"
)

// Status is the live run observatory and the process's one live sink:
// attach one to Config.Status (or process-wide via SetDefaultStatus) and
// every run publishes progress, its report sweep, its flight recorder and,
// with Config.Perf, its perf report to it (PerfSummary returns the
// aggregate); serve it with ServeStatus to watch a sweep over HTTP while it
// executes. Purely observational — results and reports are byte-identical
// with a status tracker attached or not — and a nil *Status is the free
// disabled state.
type Status = statusd.Tracker

// StatusServer is the HTTP server ServeStatus returns.
type StatusServer = statusd.Server

// Manifest records build and VCS provenance for a run artifact: module
// version, VCS revision, config hash and seeds. See BuildManifest.
type Manifest = telemetry.Manifest

// NewStatus builds an enabled status tracker stamped with this build's
// manifest.
func NewStatus() *Status {
	return statusd.NewTracker(telemetry.BuildManifest())
}

// ServeStatus serves a tracker's status plane on addr (e.g. ":8080" or
// "127.0.0.1:0"; Addr reports the bound address). Endpoints: /api/progress,
// /api/report, /api/manifest, /api/series, /api/series/stream (SSE),
// /api/alerts, /api/alerts/stream (SSE), /api/perf, /api/checkpoints and
// /metrics (Prometheus text exposition, each registry series once per run).
// Close the server to stop.
func ServeStatus(addr string, st *Status) (*StatusServer, error) {
	return statusd.NewServer(addr, st)
}

// BuildManifest returns this build's provenance (module version, VCS
// revision, process start time). Use Manifest.WithConfig to stamp a specific
// experiment's config hash and seed list before embedding it in an artifact.
func BuildManifest() Manifest {
	return telemetry.BuildManifest()
}

// VersionString is the one-line -version output.
func VersionString() string {
	return telemetry.BuildManifest().String()
}

// defaultStatus is the process-wide tracker installed by SetDefaultStatus.
// Runs whose Config.Status is nil publish here (when set); hermes-bench
// plumbs its -status flag through this so experiment helpers that build
// Configs internally are observable too.
var defaultStatus atomic.Pointer[Status]

// SetDefaultStatus installs st as the process-wide default status tracker
// used by runs whose Config.Status is nil. Pass nil to uninstall.
func SetDefaultStatus(st *Status) {
	defaultStatus.Store(st)
}

// statusFor resolves the tracker a run publishes to: the config's own, else
// the process default, else nil (disabled — every publish is a no-op).
func statusFor(cfg *Config) *Status {
	if cfg.Status != nil {
		return cfg.Status
	}
	return defaultStatus.Load()
}
