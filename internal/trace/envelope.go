package trace

import "math"

// Enveloped is implemented by traces that can bracket Rate more cheaply
// than they evaluate it. Thinning resolves it once per generator: a
// candidate whose uniform draw falls below lo/peak is accepted and one
// at or above hi/peak rejected without calling Rate.
type Enveloped interface {
	// Envelope returns the trace's rate envelope, or nil when it has
	// none for the trace's current parameters.
	Envelope() *Envelope
}

// envBuckets is the number of equal day-fraction buckets in a Diurnal
// envelope. It is a power of two, so every bucket edge i/envBuckets and
// every product x*envBuckets is exact in float64.
const envBuckets = 1024

// Envelope is a per-bucket bracket lo ≤ Rate(t) ≤ hi of a trace that
// repeats with a fixed period. The bounds hold for the float64 values
// Rate actually returns, not only for the real-valued curve, so a
// comparison decided by the envelope is the comparison Rate would have
// decided.
type Envelope struct {
	period float64
	b      [envBuckets]bounds
}

type bounds struct{ lo, hi float64 }

// Bounds returns lo ≤ Rate(t) ≤ hi. Outside t ≥ 0 it returns the
// trivial bracket [0, +Inf), which decides nothing.
//
//amoeba:noalloc
func (e *Envelope) Bounds(t float64) (lo, hi float64) {
	f := t / e.period
	// For f ≥ 0 both this subtraction and Rate's math.Mod are exact,
	// so x is bit-equal to the day fraction Rate evaluates.
	x := f - math.Floor(f)
	if !(t >= 0 && x < 1) {
		return 0, math.Inf(1)
	}
	b := &e.b[int(x*envBuckets)]
	return b.lo, b.hi
}

// diurnalParams are the exported Diurnal fields an envelope depends on.
type diurnalParams struct {
	peak, trough, day, morning, evening, noiseAmp float64
}

func (d *Diurnal) params() diurnalParams {
	return diurnalParams{d.PeakQPS, d.TroughQPS, d.DayLength, d.MorningPeak, d.EveningPeak, d.NoiseAmp}
}

// Envelope returns the bracket built by NewDiurnal, or nil if the
// trace was not built by NewDiurnal or its exported fields have
// changed since.
func (d *Diurnal) Envelope() *Envelope {
	if d.env == nil || d.params() != d.envKey {
		return nil
	}
	return d.env
}

// lipschitz bounds |d rateAt/dx| over the day fraction x. With
// A = |Peak−Trough|, the shape term 0.55·base + 0.45·max(bumps) has
// slope at most 0.55π (the cosine base) plus 0.45/(w·√e) (a Gaussian
// of width w, steepest at one width from its centre; the narrower
// morning bump dominates). The noise factor 1+n(x) has
// |n| ≤ (a/2)·H₆ and |n'| ≤ (a/2)·Σ 2π·3i/i = 18π·a for amplitude a.
// The product rule over rate = (T + A·shape)·(1+n), whose first factor
// is at most max(|T|, |P|) in magnitude, gives the bound; the clamp at
// zero does not raise a Lipschitz constant.
func (d *Diurnal) lipschitz() float64 {
	a := 0.0
	if d.NoiseAmp > 0 {
		a = d.NoiseAmp
	}
	harmonic := 0.0
	for i := 1; i <= noiseTerms; i++ {
		harmonic += 1 / float64(i)
	}
	noiseMax := a / 2 * harmonic
	noiseSlope := a / 2 * 2 * math.Pi * 3 * noiseTerms
	shapeSlope := 0.55*math.Pi + 0.45/(math.Min(morningWidth, eveningWidth)*math.Sqrt(math.E))
	amp := math.Abs(d.PeakQPS - d.TroughQPS)
	level := math.Max(math.Abs(d.TroughQPS), math.Abs(d.PeakQPS))
	return amp*shapeSlope*(1+noiseMax) + level*noiseSlope
}

// buildEnvelope brackets every bucket [a, b] of the day: a function with
// Lipschitz constant L lies under the tent min(f(a)+L(x−a), f(b)+L(b−x))
// and over its mirror, so (f(a)+f(b))/2 ± L(b−a)/2 bounds it. eps
// widens both sides for the float error of evaluating rateAt, which is
// many orders of magnitude below it.
func (d *Diurnal) buildEnvelope() {
	l := d.lipschitz()
	half := l / envBuckets / 2
	eps := 1e-9 * (math.Abs(d.PeakQPS) + math.Abs(d.TroughQPS) + l)
	e := &Envelope{period: d.DayLength}
	fa := d.rateAt(0)
	for i := range e.b {
		fb := d.rateAt(float64(i+1) / envBuckets)
		mid := (fa + fb) / 2
		e.b[i] = bounds{lo: math.Max(0, mid-half-eps), hi: mid + half + eps}
		fa = fb
	}
	d.env, d.envKey = e, d.params()
}
