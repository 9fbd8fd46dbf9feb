package sim

import "time"

// Kind classifies an event for the engine's self-profiler. Every scheduling
// call site tags its events with the layer that owns them (port transmission,
// propagation, retransmission timers, probes, workload arrivals, samplers,
// chaos injections) so a profiled run can attribute engine time by subsystem.
// The zero value KindOther covers untagged call sites.
type Kind uint8

const (
	KindOther     Kind = iota // untagged / miscellaneous
	KindPortTx                // port serialization finished (store-and-forward)
	KindPropagate             // link propagation delivery
	KindRTO                   // transport retransmission timeouts
	KindTimer                 // protocol timers (reorder, flowlet age, table decay)
	KindProbe                 // path probing and monitor scans
	KindArrival               // workload flow/packet arrivals
	KindSample                // observer instants: report sweeps and flight-recorder sampling
	KindChaos                 // chaos scenario injections and reverts

	// NumKinds is the number of distinct event kinds (array sizing).
	NumKinds = int(KindChaos) + 1
)

var kindNames = [NumKinds]string{
	"other", "port_tx", "propagate", "rto", "timer", "probe", "arrival",
	"sample", "chaos",
}

// String returns the stable snake_case name used in reports and metrics.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "other"
}

// DefaultSampleEvery is the default wall-time sampling stride: one in every
// N fired events is timed with the wall clock. Counting is exact for every
// event; only the time attribution is sampled, which keeps the profiled hot
// path nearly as cheap as the unprofiled one.
const DefaultSampleEvery = 64

// Profile accumulates the engine's self-profiling state for one run. It is
// owned by the simulation goroutine — like the Engine itself it is not safe
// for concurrent use, and should be read only after Run/RunAll returns.
// All state lives in fixed arrays so the profiled fire path allocates
// nothing.
type Profile struct {
	sampleEvery int64
	countdown   int64

	counts       [NumKinds]uint64 // exact fire counts per kind
	sampledNs    [NumKinds]int64  // wall ns across sampled fires per kind
	sampledFires [NumKinds]uint64 // number of sampled fires per kind
	queuePeak    int              // high-water mark of the pending queue
}

// EnableProfile turns on engine self-profiling and returns the profile that
// will accumulate for the rest of the engine's life. sampleEvery sets the
// wall-time sampling stride (1 in N fired events is timed); values < 1 use
// DefaultSampleEvery. Calling EnableProfile twice returns the same profile.
//
// Cost model: with profiling off the fire path pays one nil check. With it
// on, every fire pays an array increment and a countdown; only the sampled
// 1-in-N fires call time.Now, so neither path allocates.
func (e *Engine) EnableProfile(sampleEvery int) *Profile {
	if e.prof != nil {
		return e.prof
	}
	if sampleEvery < 1 {
		sampleEvery = DefaultSampleEvery
	}
	e.prof = &Profile{sampleEvery: int64(sampleEvery), countdown: int64(sampleEvery)}
	return e.prof
}

// Profile returns the engine's profile, or nil when profiling is disabled.
func (e *Engine) Profile() *Profile { return e.prof }

// profiledFire is the instrumented twin of the tail of Engine.fire: it runs
// one non-cancelled event while accounting it to its kind, sampling wall
// time 1 in sampleEvery fires. The event's kind is copied out before the
// callback runs because the callback may recycle-and-reuse the struct; it
// is always in range, because enqueue files unknown kinds as KindOther.
func (e *Engine) profiledFire(ev *Event) {
	p := e.prof
	k := ev.kind
	// +1: the fired event just left the queue, so pending underestimates the
	// instantaneous depth by one.
	if d := e.pending + 1; d > p.queuePeak {
		p.queuePeak = d
	}
	if !p.count(k) {
		ev.fn(ev.a1, ev.a2)
		e.recycle(ev)
		return
	}
	start := time.Now()
	ev.fn(ev.a1, ev.a2)
	p.sampledNs[k] += int64(time.Since(start))
	p.sampledFires[k]++
	e.recycle(ev)
}

// count accounts one fire of kind k and reports whether to wall-time it: one
// in every sampleEvery fires is timed.
func (p *Profile) count(k Kind) bool {
	p.counts[k]++
	p.countdown--
	if p.countdown > 0 {
		return false
	}
	p.countdown = p.sampleEvery
	return true
}

// SampleEvery returns the wall-time sampling stride.
func (p *Profile) SampleEvery() int { return int(p.sampleEvery) }

// Count returns the exact number of fired events of kind k. Observer
// instants count as KindSample fires.
func (p *Profile) Count(k Kind) uint64 { return p.counts[k] }

// SampledNs returns the total wall nanoseconds measured across the sampled
// fires of kind k. Multiply by SampleEvery for an estimate of the kind's
// total wall time.
func (p *Profile) SampledNs(k Kind) int64 { return p.sampledNs[k] }

// SampledFires returns how many fires of kind k were wall-timed.
func (p *Profile) SampledFires(k Kind) uint64 { return p.sampledFires[k] }

// QueuePeak returns the high-water mark of the pending-event queue observed
// while profiling (including the event being fired).
func (p *Profile) QueuePeak() int { return p.queuePeak }

// Total returns the exact total number of profiled event fires, observer
// instants included.
func (p *Profile) Total() uint64 {
	var t uint64
	for _, c := range p.counts {
		t += c
	}
	return t
}
