// Package trace generates the load patterns that drive the evaluation.
// The paper shapes each benchmark's load after a ride-request trace from Didi
// (§II-A, §VII-A) and notes that "the actual fluctuate pattern does not
// affect the analysis": what matters is the diurnal swing — a deep night
// trough (the paper quotes low load below 30 % of peak) and one or two
// daytime peaks. The Didi-shaped generator reproduces exactly that
// structure synthetically.
package trace

import (
	"fmt"
	"math"

	"amoeba/internal/sim"
)

// Trace maps virtual time (seconds) to an instantaneous arrival rate in
// queries per second.
type Trace interface {
	// Rate returns the arrival rate at time t. Implementations must be
	// deterministic and non-negative.
	Rate(t float64) float64
	// Peak returns an upper bound on Rate over the horizon of interest —
	// used both for provisioning and for Poisson thinning.
	Peak() float64
}

// Constant is a flat trace.
type Constant struct{ QPS float64 }

func (c Constant) Rate(float64) float64 { return c.QPS }
func (c Constant) Peak() float64        { return c.QPS }

// Step switches from Before to After at time At.
type Step struct {
	Before, After float64
	At            float64
}

func (s Step) Rate(t float64) float64 {
	if t < s.At {
		return s.Before
	}
	return s.After
}

func (s Step) Peak() float64 { return math.Max(s.Before, s.After) }

// Diurnal is the Didi-shaped daily pattern: a base sinusoid with a morning
// and an evening peak, a deep night trough, multiplicative noise, and
// optional short bursts.
type Diurnal struct {
	PeakQPS   float64 // daytime peak arrival rate
	TroughQPS float64 // night trough (paper: < 30% of peak)
	DayLength float64 // seconds per simulated day
	// MorningPeak and EveningPeak are fractions of the day where the two
	// rush-hour bumps sit (Didi's trace peaks at commute hours).
	MorningPeak, EveningPeak float64
	// NoiseAmp is the multiplicative noise amplitude (0 disables).
	NoiseAmp float64
	// noise is a fixed random phase table so the trace stays
	// deterministic for a given seed.
	noise []float64
	// env brackets Rate for the parameters in envKey; NewDiurnal builds
	// it once, so concurrent readers never race on it.
	env    *Envelope
	envKey diurnalParams
}

// Widths of the morning and evening rush-hour bumps, and the number of
// terms in the noise series, as day fractions and counts.
const (
	morningWidth = 0.06
	eveningWidth = 0.07
	noiseTerms   = 6
)

// NewDiurnal builds a Didi-shaped daily trace. dayLength is the virtual
// duration of one day; seed fixes the noise. It panics on a non-positive
// day length or an inverted peak/trough pair.
func NewDiurnal(peakQPS, troughQPS, dayLength float64, seed uint64) *Diurnal {
	if peakQPS <= 0 || troughQPS < 0 || troughQPS >= peakQPS {
		panic(fmt.Sprintf("trace: invalid diurnal peak=%v trough=%v", peakQPS, troughQPS))
	}
	if dayLength <= 0 {
		panic("trace: non-positive day length")
	}
	d := &Diurnal{
		PeakQPS:     peakQPS,
		TroughQPS:   troughQPS,
		DayLength:   dayLength,
		MorningPeak: 0.35, // ~8:24 on a 0..1 day
		EveningPeak: 0.75, // ~18:00
		NoiseAmp:    0.06,
	}
	rng := sim.NewRNG(seed)
	d.noise = make([]float64, 64)
	for i := range d.noise {
		d.noise[i] = rng.Uniform(0, 2*math.Pi)
	}
	d.buildEnvelope()
	return d
}

// Rate evaluates the diurnal curve at time t.
func (d *Diurnal) Rate(t float64) float64 {
	x := math.Mod(t/d.DayLength, 1)
	if x < 0 {
		x += 1
	}
	return d.rateAt(x)
}

// rateAt evaluates the diurnal curve at day fraction x in [0, 1].
func (d *Diurnal) rateAt(x float64) float64 {
	// Two Gaussian bumps over a cosine base that bottoms out at night.
	base := 0.5 - 0.5*math.Cos(2*math.Pi*x) // 0 at midnight, 1 at noon
	shape := 0.55*base + 0.45*math.Max(bump(x, d.MorningPeak, morningWidth), bump(x, d.EveningPeak, eveningWidth))

	// Deterministic multiplicative noise from a small Fourier series.
	noise := 0.0
	if d.NoiseAmp > 0 && len(d.noise) > 0 {
		for i := 1; i <= noiseTerms; i++ {
			noise += math.Sin(2*math.Pi*float64(i*3)*x+d.noise[i]) / float64(i)
		}
		noise *= d.NoiseAmp / 2
	}

	rate := d.TroughQPS + (d.PeakQPS-d.TroughQPS)*shape
	rate *= 1 + noise
	if rate < 0 {
		rate = 0
	}
	return rate
}

// bump is a Gaussian of the given width centred on a day fraction,
// measured by wrap-around distance.
func bump(x, center, width float64) float64 {
	dx := x - center
	if dx > 0.5 {
		dx -= 1
	}
	if dx < -0.5 {
		dx += 1
	}
	return math.Exp(-dx * dx / (2 * width * width))
}

// Peak returns a safe upper bound on the rate.
func (d *Diurnal) Peak() float64 {
	// Shape <= 1 and noise <= NoiseAmp, so this bound holds; also scan a
	// day to tighten it.
	bound := d.PeakQPS * (1 + d.NoiseAmp)
	mx := 0.0
	for i := 0; i < 2000; i++ {
		if r := d.Rate(float64(i) / 2000 * d.DayLength); r > mx {
			mx = r
		}
	}
	if mx > bound {
		return mx
	}
	return mx * 1.02 // small headroom for points between scan samples
}

// Scaled wraps a trace, multiplying its rate by Factor.
type Scaled struct {
	Inner  Trace
	Factor float64
}

func (s Scaled) Rate(t float64) float64 { return s.Inner.Rate(t) * s.Factor }
func (s Scaled) Peak() float64          { return s.Inner.Peak() * s.Factor }

// Burst overlays a square burst of Extra QPS on Inner during [From, To).
type Burst struct {
	Inner    Trace
	Extra    float64
	From, To float64
}

func (b Burst) Rate(t float64) float64 {
	r := b.Inner.Rate(t)
	if t >= b.From && t < b.To {
		r += b.Extra
	}
	return r
}

func (b Burst) Peak() float64 { return b.Inner.Peak() + b.Extra }
