package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/hermes-repro/hermes/internal/transport"
)

// span is one timed interval at a layer boundary. Spans of one traced
// operation share Op; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	epoch time.Time
	op    int // current traced operation
	open  int // ID of the innermost open span
	spans []span
}

// do runs fn inside a span named name, nested under the innermost open span,
// and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: t.open, Name: name})
	parent := t.open
	t.open = id
	start := time.Now()
	fn()
	d := time.Since(start)
	t.open = parent
	sp := &t.spans[id-1]
	sp.StartNs, sp.DurNs = start.Sub(t.epoch).Nanoseconds(), d.Nanoseconds()
	return d
}

// total sums the durations of the current operation's spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op == t.op; i-- {
		if t.spans[i].Name == name {
			d += time.Duration(t.spans[i].DurNs)
			n++
		}
	}
	return d, n
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockCost is the mean wall time a time.Now/time.Since pair adds to the
// interval it brackets, measured around an empty body. It is subtracted from
// every sampled call time.
func clockCost() float64 {
	const n = 1 << 16
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		total += time.Since(start)
	}
	return float64(total) / n
}

// sampleEvery is the balancer decorator's stride: every call is counted and
// one in sampleEvery of each hot-path call is wall-timed. Per-call spans are
// aggregated here instead of stored.
const sampleEvery = 16

// callStat aggregates one balancer method.
type callStat struct {
	calls, timed uint64
	ns           int64 // wall time of the timed calls
}

// perCall is the method's mean cost with the clock's cost removed.
func (c callStat) perCall(clock float64) float64 {
	if c.timed == 0 {
		return 0
	}
	return float64(c.ns)/float64(c.timed) - clock
}

// balancerStats aggregates every host's balancer calls for one run.
type balancerStats struct {
	selectPath, onAck, onSent callStat
	// other counts the calls that are not timed: flow start and end,
	// retransmit and timeout feedback.
	other uint64
	// inStart is set while a flow start runs; timed calls then also add to
	// nestedNs, the balancer's share of flow-start spans.
	inStart     bool
	nestedTimed uint64
	nestedNs    int64
}

func (st *balancerStats) sample(c *callStat, start time.Time) {
	d := int64(time.Since(start))
	c.timed++
	c.ns += d
	if st.inStart {
		st.nestedTimed++
		st.nestedNs += d
	}
}

// selfNs estimates the balancer's total wall time over the run.
func (st *balancerStats) selfNs(clock float64) float64 {
	t := 0.0
	for _, c := range []callStat{st.selectPath, st.onAck, st.onSent} {
		t += c.perCall(clock) * float64(c.calls)
	}
	return t
}

// nestedSelfNs estimates the balancer's wall time inside flow starts.
func (st *balancerStats) nestedSelfNs(clock float64) float64 {
	return (float64(st.nestedNs) - float64(st.nestedTimed)*clock) * sampleEvery
}

func (st *balancerStats) calls() uint64 {
	return st.selectPath.calls + st.onAck.calls + st.onSent.calls + st.other
}

// timedBalancer is the decorator the traced stack puts around every host's
// balancer. The embedded balancer supplies Name.
type timedBalancer struct {
	transport.Balancer
	st *balancerStats
}

func (b *timedBalancer) SelectPath(f *transport.Flow) int {
	c := &b.st.selectPath
	if c.calls++; c.calls%sampleEvery != 0 {
		return b.Balancer.SelectPath(f)
	}
	start := time.Now()
	p := b.Balancer.SelectPath(f)
	b.st.sample(c, start)
	return p
}

func (b *timedBalancer) OnAck(f *transport.Flow, ev transport.AckEvent) {
	c := &b.st.onAck
	if c.calls++; c.calls%sampleEvery != 0 {
		b.Balancer.OnAck(f, ev)
		return
	}
	start := time.Now()
	b.Balancer.OnAck(f, ev)
	b.st.sample(c, start)
}

func (b *timedBalancer) OnSent(f *transport.Flow, path, bytes int) {
	c := &b.st.onSent
	if c.calls++; c.calls%sampleEvery != 0 {
		b.Balancer.OnSent(f, path, bytes)
		return
	}
	start := time.Now()
	b.Balancer.OnSent(f, path, bytes)
	b.st.sample(c, start)
}

func (b *timedBalancer) OnRetransmit(f *transport.Flow, path int) {
	b.st.other++
	b.Balancer.OnRetransmit(f, path)
}

func (b *timedBalancer) OnTimeout(f *transport.Flow, path int) {
	b.st.other++
	b.Balancer.OnTimeout(f, path)
}

func (b *timedBalancer) OnFlowStart(f *transport.Flow) {
	b.st.other++
	b.Balancer.OnFlowStart(f)
}

func (b *timedBalancer) OnFlowDone(f *transport.Flow) {
	b.st.other++
	b.Balancer.OnFlowDone(f)
}
