package net

import (
	"math"

	"github.com/hermes-repro/hermes/internal/sim"
)

// DRE is a Discounting Rate Estimator as used by CONGA and by Hermes' flow
// and path rate tracking (r_f and r_p in Table 3). It accumulates bytes and
// decays them exponentially with time constant tau, so Rate converges to the
// recent average sending rate. Decay is applied lazily on access, which
// avoids periodic timer events.
type DRE struct {
	x    float64  // decayed byte count
	last sim.Time // time of last update
	tau  float64  // time constant in nanoseconds

	// dt and factor memoize the last decay, factor = exp(-dt/tau): about
	// half of all updates repeat the previous interval. The zero dt matches
	// no decay, as decay only runs on a positive interval.
	dt     sim.Time
	factor float64
}

// DefaultDRETau is the estimator time constant. CONGA uses ~100-200us; the
// same constant works for host-side flow-rate estimation.
const DefaultDRETau = 200 * sim.Microsecond

// NewDRE returns an estimator with the given time constant (nanoseconds).
// A non-positive tau falls back to DefaultDRETau.
func NewDRE(tau sim.Time) DRE {
	if tau <= 0 {
		tau = DefaultDRETau
	}
	return DRE{tau: float64(tau)}
}

func (d *DRE) decay(now sim.Time) {
	if now <= d.last {
		return
	}
	if dt := now - d.last; dt != d.dt {
		d.dt = dt
		d.factor = math.Exp(-float64(dt) / d.tau)
	}
	d.x *= d.factor
	d.last = now
}

// Add records bytes transmitted at time now.
func (d *DRE) Add(bytes int, now sim.Time) {
	d.decay(now)
	d.x += float64(bytes)
}

// RateBps returns the estimated sending rate in bits per second at time now.
func (d *DRE) RateBps(now sim.Time) float64 {
	d.decay(now)
	return d.x / d.tau * 8e9
}

// Quantize maps the estimated utilization of a link with capacity capBps to
// [0, levels-1], CONGA-style (3 bits => levels == 8).
func (d *DRE) Quantize(now sim.Time, capBps int64, levels int) uint8 {
	if capBps <= 0 {
		return uint8(levels - 1)
	}
	u := d.RateBps(now) / float64(capBps)
	q := int(u * float64(levels))
	if q >= levels {
		q = levels - 1
	}
	if q < 0 {
		q = 0
	}
	return uint8(q)
}
