// Package workload generates the paper's traffic: flow sizes drawn from the
// empirical web-search [DCTCP, ref 6] and data-mining [VL2, ref 18]
// distributions, arriving as a Poisson process between random hosts under
// different leaves, with the rate set by a target load on the fabric
// bisection (the flow generator of ref [8]).
package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/hermes-repro/hermes/internal/sim"
)

// CDFPoint is one point of an empirical flow-size CDF.
type CDFPoint struct {
	Bytes int64
	Prob  float64 // cumulative probability at Bytes
}

// CDF is a piecewise-linear empirical distribution over flow sizes.
type CDF struct {
	Name   string
	points []CDFPoint
}

// maxCDFBytes caps flow sizes at 1 PiB: far above any real distribution, and
// small enough that interpolation arithmetic in Sample can never overflow.
const maxCDFBytes = int64(1) << 50

// NewCDF validates and builds a distribution. Points must be sorted by
// bytes, have non-decreasing probabilities, and end at probability 1.
func NewCDF(name string, points []CDFPoint) (*CDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: CDF %q needs at least 2 points", name)
	}
	for i, p := range points {
		// The negated comparison also rejects NaN, which would otherwise
		// slip through and poison Sample/Mean.
		if !(p.Prob >= 0 && p.Prob <= 1) {
			return nil, fmt.Errorf("workload: CDF %q point %d probability %v out of range", name, i, p.Prob)
		}
		if p.Bytes < 0 || p.Bytes > maxCDFBytes {
			return nil, fmt.Errorf("workload: CDF %q point %d size %d out of range [0, 2^50]", name, i, p.Bytes)
		}
		if i > 0 {
			if p.Bytes <= points[i-1].Bytes {
				return nil, fmt.Errorf("workload: CDF %q bytes not increasing at point %d", name, i)
			}
			if p.Prob < points[i-1].Prob {
				return nil, fmt.Errorf("workload: CDF %q probability decreasing at point %d", name, i)
			}
		}
	}
	if last := points[len(points)-1]; last.Prob != 1 {
		return nil, fmt.Errorf("workload: CDF %q must end at probability 1, got %v", name, last.Prob)
	}
	cp := make([]CDFPoint, len(points))
	copy(cp, points)
	return &CDF{Name: name, points: cp}, nil
}

// MustCDF is NewCDF that panics on error; for package-level tables.
func MustCDF(name string, points []CDFPoint) *CDF {
	c, err := NewCDF(name, points)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws a flow size by inverse-transform sampling with linear
// interpolation between points.
func (c *CDF) Sample(rng *sim.RNG) int64 {
	u := rng.Float64()
	pts := c.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	if i == 0 {
		return pts[0].Bytes
	}
	if i >= len(pts) {
		return pts[len(pts)-1].Bytes
	}
	lo, hi := pts[i-1], pts[i]
	if hi.Prob == lo.Prob {
		return hi.Bytes
	}
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	return lo.Bytes + int64(frac*float64(hi.Bytes-lo.Bytes))
}

// Mean returns the distribution's expected flow size in bytes, assuming
// uniform interpolation within each segment.
func (c *CDF) Mean() float64 {
	var mean float64
	pts := c.points
	mean += float64(pts[0].Bytes) * pts[0].Prob
	for i := 1; i < len(pts); i++ {
		p := pts[i].Prob - pts[i-1].Prob
		mid := float64(pts[i-1].Bytes+pts[i].Bytes) / 2
		mean += p * mid
	}
	return mean
}

// Truncate returns a copy of the distribution capped at maxBytes: all mass
// above maxBytes collapses onto maxBytes. Used to bound simulation cost for
// the extremely heavy data-mining tail (documented in EXPERIMENTS.md). A cap
// at or below the smallest flow size, or above 2^50, is an error.
func (c *CDF) Truncate(maxBytes int64) (*CDF, error) {
	var pts []CDFPoint
	for _, p := range c.points {
		if p.Bytes >= maxBytes {
			break
		}
		pts = append(pts, p)
	}
	pts = append(pts, CDFPoint{Bytes: maxBytes, Prob: 1})
	return NewCDF(c.Name+"-trunc", pts)
}

// Points returns a copy of the CDF points (for Fig 7 output).
func (c *CDF) Points() []CDFPoint {
	cp := make([]CDFPoint, len(c.points))
	copy(cp, c.points)
	return cp
}

// WebSearch is the DCTCP web-search flow-size distribution [6]: bursty, many
// small flows, ~30% of flows above 1 MB. Mean ≈ 1.6 MB.
var WebSearch = MustCDF("web-search", []CDFPoint{
	{Bytes: 1_000, Prob: 0},
	{Bytes: 10_000, Prob: 0.15},
	{Bytes: 20_000, Prob: 0.20},
	{Bytes: 30_000, Prob: 0.30},
	{Bytes: 50_000, Prob: 0.40},
	{Bytes: 80_000, Prob: 0.53},
	{Bytes: 200_000, Prob: 0.60},
	{Bytes: 1_000_000, Prob: 0.70},
	{Bytes: 2_000_000, Prob: 0.80},
	{Bytes: 5_000_000, Prob: 0.90},
	{Bytes: 10_000_000, Prob: 0.97},
	{Bytes: 30_000_000, Prob: 1},
})

// DataMining is the VL2 data-mining distribution [18]: extremely heavy
// tailed — about 80% of flows are under 10 KB while a few percent exceed
// 35 MB and carry ~95% of the bytes (§5.1 of the paper).
var DataMining = MustCDF("data-mining", []CDFPoint{
	{Bytes: 100, Prob: 0},
	{Bytes: 180, Prob: 0.10},
	{Bytes: 250, Prob: 0.20},
	{Bytes: 560, Prob: 0.30},
	{Bytes: 900, Prob: 0.40},
	{Bytes: 1_100, Prob: 0.50},
	{Bytes: 60_000, Prob: 0.60},
	{Bytes: 90_000, Prob: 0.70},
	{Bytes: 350_000, Prob: 0.80},
	{Bytes: 5_800_000, Prob: 0.90},
	{Bytes: 28_000_000, Prob: 0.95},
	{Bytes: 200_000_000, Prob: 0.98},
	{Bytes: 1_000_000_000, Prob: 1},
})

// ByName resolves a workload name ("web-search" or "data-mining").
func ByName(name string) (*CDF, error) {
	switch name {
	case "web-search", "websearch", "ws":
		return WebSearch, nil
	case "data-mining", "datamining", "dm":
		return DataMining, nil
	}
	return nil, fmt.Errorf("workload: unknown distribution %q", name)
}

// ParseCDF reads an empirical distribution in the standard two-column text
// format used by the ns-2/ns-3 traffic generators this literature shares:
// one "<bytes> <cumulative-probability>" pair per line, '#' comments and
// blank lines ignored. (The three-column "<bytes> <bytes> <prob>" variant
// of Bai et al.'s generator is accepted too; the duplicate column is
// skipped.)
func ParseCDF(name string, r io.Reader) (*CDF, error) {
	var pts []CDFPoint
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("workload: %s line %d: want 2 or 3 columns, got %d", name, line, len(fields))
		}
		bytes, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: bad size %q", name, line, fields[0])
		}
		// Range-check before the int64 conversion: converting an
		// out-of-range float is implementation-defined in Go.
		if !(bytes >= 0 && bytes <= float64(maxCDFBytes)) {
			return nil, fmt.Errorf("workload: %s line %d: size %v out of range [0, 2^50]", name, line, bytes)
		}
		prob, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: bad probability %q", name, line, fields[len(fields)-1])
		}
		pts = append(pts, CDFPoint{Bytes: int64(bytes), Prob: prob})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	return NewCDF(name, pts)
}

// LoadCDFFile reads a distribution from a file via ParseCDF.
func LoadCDFFile(path string) (*CDF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseCDF(path, f)
}
