package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	hermes "github.com/hermes-repro/hermes"
	"github.com/hermes-repro/hermes/internal/checkpoint"
)

// inspectCheckpoint prints a checkpoint envelope without replaying it: the
// header (version, fingerprints, frozen instant), the experiment the embedded
// config describes, and the per-section byte budget of the verification
// state. path may be a directory, in which case the latest checkpoint wins —
// the same resolution rule hermes-sim -resume uses.
func inspectCheckpoint(w io.Writer, path string) error {
	path, err := checkpoint.Resolve(path)
	if err != nil {
		return err
	}
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint %s\n", path)
	fmt.Fprintf(w, "  format      %s/v%d\n", f.Magic, f.Version)
	fmt.Fprintf(w, "  sim time    %.3f ms (t=%dns)\n", float64(f.SimTimeNs)/1e6, f.SimTimeNs)
	fmt.Fprintf(w, "  seed        %d\n", f.Seed)
	fmt.Fprintf(w, "  config sha  %s\n", f.ConfigSHA)
	fmt.Fprintf(w, "  state sha   %s\n", f.StateSHA)

	var cfg hermes.Config
	if err := json.Unmarshal(f.Config, &cfg); err != nil {
		return fmt.Errorf("checkpoint config: %w", err)
	}
	fmt.Fprintf(w, "  experiment  scheme=%s workload=%s load=%.2f flows=%d topology=%dx%dx%d\n",
		cfg.Scheme, cfg.Workload, cfg.Load, cfg.Flows,
		cfg.Topology.Leaves, cfg.Topology.Spines, cfg.Topology.HostsPerLeaf)
	if cfg.Scenario != nil {
		fmt.Fprintf(w, "  scenario    %s (%d events)\n", cfg.Scenario.Name, len(cfg.Scenario.Events))
	}
	if cfg.Checkpoint != nil {
		fmt.Fprintf(w, "  plan        dir=%s interval=%dns at=%v\n",
			cfg.Checkpoint.Dir, cfg.Checkpoint.IntervalNs, cfg.Checkpoint.AtNs)
	}

	// The state is the replay-verification oracle: section sizes show where
	// the observable simulation state lives at the frozen instant.
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(f.State, &sections); err != nil {
		return fmt.Errorf("checkpoint state: %w", err)
	}
	names := make([]string, 0, len(sections))
	total := 0
	for name, raw := range sections {
		names = append(names, name)
		total += len(raw)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  state       %d bytes across %d sections\n", total, len(sections))
	for _, name := range names {
		fmt.Fprintf(w, "    %-10s %8d bytes\n", name, len(sections[name]))
	}
	return nil
}
