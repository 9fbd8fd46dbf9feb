package perf

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeInterval is the wall-clock sampling interval of the Go runtime
// sampler of a profiled run (Options).
const RuntimeInterval = 50 * time.Millisecond

// RuntimeStats are the aggregates of one sampler window (one run, usually):
// peaks and deltas between Start and Stop.
type RuntimeStats struct {
	PeakHeapBytes  uint64
	GCCycles       uint32 // cycles completed during the window
	GCPauseNs      uint64 // stop-the-world pause ns during the window
	PeakGoroutines int
	GOMAXPROCS     int
	CPUUtilization float64 // mean busy fraction of GOMAXPROCS over the window
	Samples        int
	WallNs         int64
}

// RuntimeSampler watches the Go runtime on a wall-clock ticker while a
// simulation runs, keeping the window's peak heap bytes and goroutine
// count, its GC activity and, at Stop, its CPU utilization. It is safe for
// concurrent use: the sampling goroutine and Stop take the mutex.
//
// The sampler deliberately reads only Go runtime APIs — never simulation
// state — so it can run against the single-threaded engine without races.
type RuntimeSampler struct {
	interval time.Duration

	mu      sync.Mutex
	stats   RuntimeStats
	stopped bool

	startWall    time.Time
	startGC      uint32
	startPauseNs uint64
	cpuOK        bool
	cpuStartBusy float64 // cpu-seconds (total - idle) at Start

	stop chan struct{}
	done chan struct{}
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readCPUBusy returns the process's cumulative busy cpu-seconds
// (total - idle across all Ps) and whether the runtime exposes the metric.
func readCPUBusy() (float64, bool) {
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, false
	}
	return s[0].Value.Float64() - s[1].Value.Float64(), true
}

// StartRuntimeSampler begins sampling every interval, which must be
// positive. Call Stop to end the window and collect aggregates; Stop always
// folds in one final sample so even runs shorter than the interval observe
// the runtime at least twice.
func StartRuntimeSampler(interval time.Duration) *RuntimeSampler {
	s := &RuntimeSampler{
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.startWall = time.Now()
	s.startGC = ms.NumGC
	s.startPauseNs = ms.PauseTotalNs
	s.stats.GOMAXPROCS = runtime.GOMAXPROCS(0)
	s.cpuStartBusy, s.cpuOK = readCPUBusy()
	s.sampleLocked(&ms) // opening sample
	go s.loop()
	return s
}

func (s *RuntimeSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s.mu.Lock()
			s.sampleLocked(&ms)
			s.mu.Unlock()
		}
	}
}

// sampleLocked folds one sample into the stats; callers hold mu (or own
// the sampler exclusively, as Start does before the goroutine exists).
func (s *RuntimeSampler) sampleLocked(ms *runtime.MemStats) {
	g := runtime.NumGoroutine()
	s.stats.Samples++
	if ms.HeapAlloc > s.stats.PeakHeapBytes {
		s.stats.PeakHeapBytes = ms.HeapAlloc
	}
	if g > s.stats.PeakGoroutines {
		s.stats.PeakGoroutines = g
	}
	s.stats.GCCycles = ms.NumGC - s.startGC
	s.stats.GCPauseNs = ms.PauseTotalNs - s.startPauseNs
}

// Stop ends the window, takes a final sample, and returns the window's
// aggregates. It is idempotent: later calls return the same stats.
func (s *RuntimeSampler) Stop() *RuntimeStats {
	s.mu.Lock()
	if s.stopped {
		st := s.stats
		s.mu.Unlock()
		return &st
	}
	s.stopped = true
	s.mu.Unlock()

	close(s.stop)
	<-s.done

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleLocked(&ms)
	s.stats.WallNs = time.Since(s.startWall).Nanoseconds()
	if busy, ok := readCPUBusy(); ok && s.cpuOK && s.stats.WallNs > 0 {
		wallSec := float64(s.stats.WallNs) / 1e9
		util := (busy - s.cpuStartBusy) / wallSec / float64(s.stats.GOMAXPROCS)
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		s.stats.CPUUtilization = util
	}
	st := s.stats
	return &st
}
