// Package cli is the front end the hermes commands share: the -version,
// -cpuprofile and -memprofile flags, one exit path, the SIGINT/SIGTERM
// context, the status plane, the named fabrics and scenarios, and file
// output. What differs between the commands stays in each command.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	hermes "github.com/hermes-repro/hermes"
)

// Main registers the shared flags, parses the command line and calls run,
// then ends the process through Exit with run's error. -version prints the
// build and exits before run; -cpuprofile and -memprofile capture all of
// run, however the command ends.
func Main(run func() error) {
	version := flag.Bool("version", false, "print build version and VCS revision, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the command to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *version {
		fmt.Println(hermes.VersionString())
		Exit(nil)
	}
	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		Exit(err)
	}
	Exit(run())
}

var (
	exitMu   sync.Mutex
	cleanups []func() error
)

// AtExit registers f on the exit path. Exit runs every registered function
// once, the last registered first, before the process ends.
func AtExit(f func() error) {
	exitMu.Lock()
	defer exitMu.Unlock()
	cleanups = append(cleanups, f)
}

// Exit is the one way a command ends. It runs the exit path, then exits 0
// when err is nil, 130 when err is an interruption (the command reports
// what it salvaged), 2 when err is flag.ErrHelp (the command printed its
// usage), and 1 after printing any other err. A cleanup that fails turns
// exit 0 into 1.
func Exit(err error) {
	code := 0
	switch {
	case err == nil:
	case Interrupted(err):
		code = 130
	case errors.Is(err, flag.ErrHelp):
		code = 2
	default:
		log.Print(err)
		code = 1
	}
	if err := flush(); err != nil {
		log.Print(err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// Interrupted reports whether err is a run stopped by its context: the
// SIGINT/SIGTERM of SignalContext, or a deadline.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// flush runs and forgets every AtExit function, the last registered first,
// and returns their errors.
func flush() error {
	exitMu.Lock()
	fs := cleanups
	cleanups = nil
	exitMu.Unlock()
	var errs []error
	for i := len(fs) - 1; i >= 0; i-- {
		errs = append(errs, fs[i]())
	}
	return errors.Join(errs...)
}

// startProfiles starts a CPU profile into cpu and has the exit path write a
// heap profile into mem after the command's own cleanups and stop the CPU
// profile last. An empty name skips that profile.
func startProfiles(cpu, mem string) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		AtExit(func() error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			return nil
		})
	}
	if mem != "" {
		AtExit(func() error {
			// Collect first, so the profile shows live objects rather than
			// garbage awaiting collection.
			runtime.GC()
			if err := WriteFile(mem, pprof.WriteHeapProfile); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			return nil
		})
	}
	return nil
}

// SignalContext returns a context that SIGINT and SIGTERM cancel and makes
// it the facade's default run context, so every run stops at its next
// scheduling slice. From then until the exit path the signals no longer
// end the process: the command watches the context and returns.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	AtExit(func() error { stop(); return nil })
	hermes.SetDefaultRunContext(ctx)
	return ctx
}

// StartStatus creates the command's status tracker and makes it the
// facade's default, so every run reports to it. A non-empty addr serves
// the status plane there; progress prints a progress line to stderr every
// interval. The exit path stops both.
func StartStatus(addr string, progress bool, interval time.Duration) (*hermes.Status, error) {
	st := hermes.NewStatus()
	hermes.SetDefaultStatus(st)
	if addr != "" {
		srv, err := hermes.ServeStatus(addr, st)
		if err != nil {
			return nil, err
		}
		AtExit(srv.Close)
		fmt.Fprintf(os.Stderr, "status plane on %s\n", srv.URL())
	}
	if progress {
		stop := st.StartLogging(os.Stderr, interval)
		AtExit(func() error { stop(); return nil })
	}
	return st, nil
}

// TopologyUsage is the help of a -topology flag: the names Topology takes.
const TopologyUsage = `"testbed" (2x2, 1G), "large" (8x8, 10G), "small" (4x4, 10G) or "chaos" (2x2, 1G hosts, 2G fabric)`

// Topology returns the fabric a -topology name selects.
func Topology(name string) (hermes.Topology, error) {
	switch name {
	case "testbed":
		return hermes.TestbedTopology(), nil
	case "large":
		return hermes.LargeScaleTopology(), nil
	case "small":
		return hermes.SmallTopology(), nil
	case "chaos":
		return hermes.ChaosTopology(), nil
	}
	return hermes.Topology{}, fmt.Errorf("unknown topology %q (want testbed, large, small or chaos)", name)
}

// Scenario returns the chaos scenario a name selects on topo: "random" is
// RandomScenario(topo, seed, intensity), any other name a builtin.
func Scenario(name string, topo hermes.Topology, seed int64, intensity float64) (*hermes.Scenario, error) {
	if name == "random" {
		return hermes.RandomScenario(topo, seed, intensity), nil
	}
	return hermes.BuiltinScenario(name, topo)
}

// PrintScenarios prints the names Scenario takes.
func PrintScenarios() {
	fmt.Println("builtin scenarios:", strings.Join(hermes.ScenarioNames(), " "))
	fmt.Println(`plus "random" (use -chaos-intensity and -seed)`)
}

// WriteFile creates path and fills it with write. It returns write's error
// ahead of Close's.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
