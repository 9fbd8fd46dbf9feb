// Package telemetry is the fabric-wide observability layer: the metric
// Plane on which net, transport, core and the schemes declare each metric
// once, naming the sinks that export it (the report sweep, the flight ring,
// a per-interval rate); the push histograms; a Hermes decision AuditLog;
// and a Report that serializes a full run to JSON, CSV and human-readable
// text.
//
// Every push instrument is nil-safe: a nil *Registry hands out nil
// histograms, and Observe on a nil histogram is a no-op. Hot paths therefore
// hold plain instrument pointers and pay only a nil check when telemetry is
// disabled.
package telemetry

import (
	"sort"
	"strings"
)

// Histogram accumulates observations into fixed upper-bound buckets plus
// count/sum/min/max. An implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// HistBucket is one exported histogram bucket.
type HistBucket struct {
	UpperBound float64 `json:"le"` // +Inf encoded as 0-count omission; see Snapshot
	Count      uint64  `json:"count"`
}

// HistogramStats is the serializable summary of a histogram.
type HistogramStats struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Inf     uint64       `json:"inf,omitempty"` // samples above the last bound
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Stats exports the histogram.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Inf: h.counts[len(h.bounds)]}
	for i, b := range h.bounds {
		s.Buckets = append(s.Buckets, HistBucket{UpperBound: b, Count: h.counts[i]})
	}
	return s
}

// Registry is the run's histogram store. Histograms are the one push
// instrument: every other metric is a pull probe declared on a Plane.
// Histograms are get-or-create by (name, labels) key, so independent call
// sites share one instrument. A nil Registry is the disabled state: it
// returns nil histograms and an empty export.
type Registry struct {
	hists map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{hists: map[string]*Histogram{}}
}

// Key renders a metric identity as name{k=v,...} with label pairs sorted by
// key, so the same logical metric always maps to the same string.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	var pairs []kv
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Histogram returns the histogram for (name, labels) with the given sorted
// upper bounds, creating it on first use (later bounds are ignored for an
// existing histogram).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	h, ok := r.hists[k]
	if !ok {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
		r.hists[k] = h
	}
	return h
}

// Histograms exports every histogram's stats, keyed by metric key.
func (r *Registry) Histograms() map[string]HistogramStats {
	if r == nil || len(r.hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramStats, len(r.hists))
	for k, h := range r.hists {
		out[k] = h.Stats()
	}
	return out
}
