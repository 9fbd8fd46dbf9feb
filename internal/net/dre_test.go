package net

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hermes-repro/hermes/internal/sim"
)

func TestDREConvergesToRate(t *testing.T) {
	d := NewDRE(200 * sim.Microsecond)
	// Feed 1250 bytes every 1 us => 10 Gbps.
	var now sim.Time
	for i := 0; i < 5000; i++ {
		d.Add(1250, now)
		now += sim.Microsecond
	}
	got := d.RateBps(now)
	want := 10e9
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("rate = %.3g, want ~%.3g", got, want)
	}
}

func TestDREDecaysToZero(t *testing.T) {
	d := NewDRE(200 * sim.Microsecond)
	d.Add(1_000_000, 0)
	if r := d.RateBps(10 * sim.Millisecond); r > 1 {
		t.Fatalf("rate after 50 tau = %.3g, want ~0", r)
	}
}

func TestDREMonotoneDecay(t *testing.T) {
	d := NewDRE(0)
	d.Add(100_000, 0)
	prev := d.RateBps(0)
	for _, dt := range []sim.Time{10_000, 50_000, 200_000, 1_000_000} {
		r := d.RateBps(dt)
		if r > prev {
			t.Fatalf("rate increased with idle time: %.3g -> %.3g", prev, r)
		}
		prev = r
	}
}

func TestDREQuantizeBounds(t *testing.T) {
	f := func(bytes uint32, capKbps uint32) bool {
		d := NewDRE(0)
		d.Add(int(bytes%10_000_000), 0)
		q := d.Quantize(0, int64(capKbps)*1000, 8)
		return q <= 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDREQuantizeZeroCapacity(t *testing.T) {
	d := NewDRE(0)
	if q := d.Quantize(0, 0, 8); q != 7 {
		t.Fatalf("zero-capacity quantization = %d, want saturated 7", q)
	}
}

func TestDREQuantizeIdleIsZero(t *testing.T) {
	d := NewDRE(0)
	if q := d.Quantize(0, 10e9, 8); q != 0 {
		t.Fatalf("idle quantization = %d, want 0", q)
	}
}

// Property: adding bytes never decreases the instantaneous rate.
func TestDREAddIncreasesRate(t *testing.T) {
	f := func(adds []uint16) bool {
		d := NewDRE(0)
		var now sim.Time
		for _, a := range adds {
			before := d.RateBps(now)
			d.Add(int(a)+1, now)
			if d.RateBps(now) < before {
				return false
			}
			now += 1000
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// plainDRE is the estimator without the memo: it decays by
// x*math.Exp(-dt/tau) on every update, the oracle FuzzDRE checks against.
type plainDRE struct {
	x    float64
	last sim.Time
	tau  float64
}

func (d *plainDRE) decay(now sim.Time) {
	if now <= d.last {
		return
	}
	dt := float64(now - d.last)
	d.x *= math.Exp(-dt / d.tau)
	d.last = now
}

// FuzzDRE: the memoized decay is bit-identical to x*math.Exp(-dt/tau) over
// fuzzed (bytes, now) sequences. tauUs picks the time constant (0 takes
// the default). Each 4-byte op moves the clock by a signed step from a
// 16-entry table, so intervals repeat as they do in a run and the clock
// also stands still or goes back, then adds bytes or reads the rate.
func FuzzDRE(f *testing.F) {
	f.Add(uint16(200), []byte{0, 1, 0xdc, 0x05, 0, 1, 0xdc, 0x05, 0, 1, 0x28, 0, 1, 1, 0, 0})
	f.Add(uint16(0), []byte{0, 2, 0xff, 0xff, 1, 2, 0, 0, 0, 3, 1, 0, 1, 0, 0, 0, 0, 2, 2, 0})
	f.Add(uint16(1), []byte{0, 15, 0xdc, 0x05, 0, 8, 0x40, 0, 1, 15, 0, 0, 2, 9, 0, 0})
	f.Add(uint16(65535), []byte{0, 4, 1, 0, 0, 5, 1, 0, 0, 4, 1, 0, 0, 5, 1, 0, 1, 4, 0, 0})
	steps := [16]sim.Time{0, 1_200, 1_200, 5_000, 5_000, 120, -7, 200_000,
		1, 2, 3, 1 << 20, -1_000_000, 64_000, 1_200, 10 * sim.Millisecond}
	f.Fuzz(func(t *testing.T, tauUs uint16, ops []byte) {
		d := NewDRE(sim.Time(tauUs) * sim.Microsecond)
		ref := plainDRE{tau: d.tau}
		now := sim.Time(1_000_000)
		for i := 0; i+4 <= len(ops); i += 4 {
			now += steps[ops[i+1]%16]
			bytes := int(ops[i+2]) | int(ops[i+3])<<8
			var got, want float64
			if ops[i]%2 == 0 {
				d.Add(bytes, now)
				ref.decay(now)
				ref.x += float64(bytes)
			} else {
				got = d.RateBps(now)
				ref.decay(now)
				want = ref.x / ref.tau * 8e9
			}
			if math.Float64bits(d.x) != math.Float64bits(ref.x) || d.last != ref.last ||
				math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d at t=%d: memoized x=%v last=%d rate=%v, plain x=%v last=%d rate=%v",
					i/4, now, d.x, d.last, got, ref.x, ref.last, want)
			}
		}
	})
}
