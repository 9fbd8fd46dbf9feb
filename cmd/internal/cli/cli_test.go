package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	hermes "github.com/hermes-repro/hermes"
)

// TestTopologyNames: each -topology name returns, field for field, the
// fabric pinned here (the paper's testbed and 8x8 baseline, hermes-bench's
// 4x4 fabric and the resilience matrix's 2x2), and an unknown name fails
// with an error that lists the four.
func TestTopologyNames(t *testing.T) {
	want := map[string]hermes.Topology{
		"testbed": {Leaves: 2, Spines: 2, HostsPerLeaf: 6, HostRateBps: 1e9, FabricRateBps: 1e9,
			CablesPerLink: 2, HostDelayNs: 5000, FabricDelayNs: 5000},
		"large": {Leaves: 8, Spines: 8, HostsPerLeaf: 16, HostRateBps: 10e9, FabricRateBps: 10e9,
			HostDelayNs: 2000, FabricDelayNs: 2000},
		"small": {Leaves: 4, Spines: 4, HostsPerLeaf: 8, HostRateBps: 10e9, FabricRateBps: 10e9,
			HostDelayNs: 2000, FabricDelayNs: 2000},
		"chaos": {Leaves: 2, Spines: 2, HostsPerLeaf: 4, HostRateBps: 1e9, FabricRateBps: 2e9,
			HostDelayNs: 2000, FabricDelayNs: 2000},
	}
	for name, w := range want {
		got, err := Topology(name)
		if err != nil {
			t.Fatalf("Topology(%q): %v", name, err)
		}
		if got != w {
			t.Errorf("Topology(%q) = %+v, want %+v", name, got, w)
		}
		if !strings.Contains(TopologyUsage, `"`+name+`"`) {
			t.Errorf("TopologyUsage does not name %q", name)
		}
	}
	_, err := Topology("medium")
	if err == nil {
		t.Fatal(`Topology("medium") succeeded`)
	}
	for name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestScenarioNames: "random" is RandomScenario with the given seed and
// intensity, every builtin name its BuiltinScenario, and an unknown name
// fails.
func TestScenarioNames(t *testing.T) {
	topo := hermes.ChaosTopology()
	got, err := Scenario("random", topo, 42, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if want := hermes.RandomScenario(topo, 42, 0.8); !reflect.DeepEqual(got, want) {
		t.Errorf("random = %+v, want %+v", got, want)
	}
	for _, name := range hermes.ScenarioNames() {
		got, err := Scenario(name, topo, 42, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := hermes.BuiltinScenario(name, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	if _, err := Scenario("no-such-scenario", topo, 42, 0.8); err == nil {
		t.Error("an unknown scenario name succeeded")
	}
}

// TestFlushRunsCleanupsAndWritesProfiles: the exit path, run without
// os.Exit, calls every cleanup once, the last registered first, returns
// their errors, and leaves non-empty gzip-compressed CPU and heap profiles.
func TestFlushRunsCleanupsAndWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := startProfiles(cpu, mem); err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := range 3 {
		AtExit(func() error { order = append(order, i); return nil })
	}
	failed := errors.New("cleanup failed")
	AtExit(func() error { return failed })
	if err := flush(); !errors.Is(err, failed) {
		t.Errorf("flush = %v, want the failed cleanup's error", err)
	}
	if want := []int{2, 1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("cleanups ran in order %v, want %v", order, want)
	}
	if err := flush(); err != nil || len(order) != 3 {
		t.Errorf("a second flush = %v and ran %d cleanups, want nil and none", err, len(order)-3)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes without a gzip header", filepath.Base(path), len(b))
		}
	}
}

// TestWriteFileReturnsTheWriteErrorFirst: WriteFile reports a failed write
// even when the close that follows fails too, and a failed close when the
// write succeeded.
func TestWriteFileReturnsTheWriteErrorFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "ok")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "ok" {
		t.Errorf("file holds %q, want %q", b, "ok")
	}

	writeErr := errors.New("write failed")
	closeFirst := func(fail error) func(io.Writer) error {
		return func(w io.Writer) error {
			w.(*os.File).Close() // so WriteFile's own Close fails
			return fail
		}
	}
	if err := WriteFile(path, closeFirst(writeErr)); !errors.Is(err, writeErr) {
		t.Errorf("write and close failed: WriteFile = %v, want the write error", err)
	}
	if err := WriteFile(path, closeFirst(nil)); !errors.Is(err, os.ErrClosed) {
		t.Errorf("close failed: WriteFile = %v, want the close error", err)
	}
	if err := WriteFile(filepath.Join(path, "under-a-file"), closeFirst(nil)); err == nil {
		t.Error("WriteFile into a path that cannot exist succeeded")
	}
}

// TestMain lets TestExitCodes run Exit in a child process: CLI_TEST_EXIT
// names the error to end with.
func TestMain(m *testing.M) {
	if kind := os.Getenv("CLI_TEST_EXIT"); kind != "" {
		AtExit(func() error { fmt.Fprintln(os.Stderr, "cleanup ran"); return nil })
		Exit(map[string]error{
			"ok":          nil,
			"interrupted": fmt.Errorf("run: %w", context.Canceled),
			"usage":       flag.ErrHelp,
			"failed":      errors.New("bad flag value"),
		}[kind])
	}
	os.Exit(m.Run())
}

// TestExitCodes runs Exit in a child process for each kind of end and
// checks its code, that the exit path ran and that only a failure prints
// its error.
func TestExitCodes(t *testing.T) {
	for kind, want := range map[string]int{"ok": 0, "interrupted": 130, "usage": 2, "failed": 1} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "CLI_TEST_EXIT="+kind)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != want {
			t.Errorf("%s: exit %d, want %d", kind, code, want)
		}
		if !strings.Contains(stderr.String(), "cleanup ran") {
			t.Errorf("%s: the exit path did not run; stderr:\n%s", kind, stderr.String())
		}
		if printed := strings.Contains(stderr.String(), "bad flag value"); printed != (kind == "failed") {
			t.Errorf("%s: error printed = %v; stderr:\n%s", kind, printed, stderr.String())
		}
	}
}
