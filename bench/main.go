// Command bench is the repository's end-to-end benchmark of the Hermes
// simulator. For each workload it does an untimed set-up, then starts timed
// operations (hermes.Run, or hermes.Restore for soak-resume) until -seconds
// have passed, checking every operation's outputs against the pinned digests
// and each other. Before each operation and after the last it times set-up
// alone, under a cancelled run context, and the reference kernel, which
// measures the machine's speed; throughput is reported at the speed of the
// machine the baselines were measured on.
//
//	go run . -seed 1                        # all workloads
//	go run . -workload fig12-ecmp -seed 3   # one workload
//
// It imports only the hermes facade and the standard library (through the
// suite package, which obeys the same rule), so a refactor inside the
// simulator cannot break it. The last line of output is the result line.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hermes-repro/hermes/bench/suite"
)

func main() {
	args, err := suite.ParseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	for _, w := range args.Workloads {
		rep, err := measure(w, args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if err := rep.Print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// measure runs one workload and reports its end-to-end metrics.
func measure(w suite.Workload, a suite.Args) (*suite.Report, error) {
	p, err := suite.Prepare(w, a.Seed, a.Flows, a.Dir)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	// Set-up and reference samples are taken before every timed operation
	// and after the last, so that both see the machine's speed over the run
	// as the operations do, not only at its start.
	var setup, refs []float64
	sample := func() error {
		s, err := p.SetupTimes(suite.SetupSamples)
		setup = append(setup, s...)
		refs = append(refs, suite.ReferenceTimes(suite.RefSamples)...)
		return err
	}

	rep := &suite.Report{Workload: w.Name}
	var walls, rates, peaks []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < a.Seconds; n++ {
		if err := sample(); err != nil {
			return nil, err
		}
		op := suite.RunTimed(p.Op)
		rep.Attempted++
		if err := p.Check(op.Res, op.Err); err != nil {
			rep.Fail(fmt.Sprintf("operation %d", n+1), err)
			continue
		}
		walls = append(walls, op.Wall.Seconds())
		rates = append(rates, suite.DeliveredBytes(op.Res)/op.Wall.Seconds()/1e6)
		peaks = append(peaks, float64(op.PeakHeap)/1e6)
	}
	if err := sample(); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0

	ok := fmt.Sprintf("median of %d operations", len(walls))
	ref := suite.Median(refs)
	rep.Add("sim_mb_per_ref_s", "MB/s", suite.Median(rates)*ref/suite.RefNominalS,
		fmt.Sprintf("%s; payload per wall second %.2f MB/s, times the reference sample's %.3f ms (median of %d) over its nominal %.3f ms",
			ok, suite.Median(rates), ref*1e3, len(refs), suite.RefNominalS*1e3))
	rep.Add("setup_s", "s", suite.Median(setup), fmt.Sprintf("median of %d samples of back-to-back set-up-only calls", len(setup)))
	rep.Add("peak_heap_mb", "MB", suite.Median(peaks), ok+"; heap objects sampled every 5 ms")
	op := "hermes.Run"
	if w.Resume {
		op = "hermes.Restore"
	}
	rep.Note("run_s %.3f s (%s, %s; not a result-line metric: it scales with the seed's traffic); each: %.3f",
		suite.Median(walls), ok, op, walls)
	rep.Note("error_rate %d/%d operations failed", rep.Failed, rep.Attempted)
	d, pinned := p.Digest()
	rep.Note("digest %s (pinned: %v)", d, pinned)
	return rep, nil
}
