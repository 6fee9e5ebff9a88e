package trace

import (
	"fmt"
	"math"
	"testing"
)

// withNoise returns a NewDiurnal trace with the given noise amplitude
// and its envelope rebuilt for it.
func withNoise(peak, trough, day float64, seed uint64, amp float64) *Diurnal {
	d := NewDiurnal(peak, trough, day, seed)
	d.NoiseAmp = amp
	d.buildEnvelope()
	return d
}

// checkBracket fails unless the envelope brackets Rate(t) exactly as
// computed: lo ≤ Rate(t) ≤ hi.
func checkBracket(tb testing.TB, d *Diurnal, e *Envelope, t float64) {
	tb.Helper()
	lo, hi := e.Bounds(t)
	if r := d.Rate(t); !(lo <= r && r <= hi) {
		tb.Fatalf("t=%v (day fraction %v): Rate %v outside envelope [%v, %v]",
			t, math.Mod(t/d.DayLength, 1), r, lo, hi)
	}
}

// TestDiurnalEnvelopeSound samples Rate densely over a day and a half
// of traces spanning seeds, troughs, day lengths and noise on and off,
// and at both sides of every bucket edge, where a bucket assignment one
// off would show first.
func TestDiurnalEnvelopeSound(t *testing.T) {
	const samples = 1_000_000
	seed := uint64(0)
	for _, day := range []float64{150, 3600} {
		for _, trough := range []float64{0.05, 0.2, 0.3} {
			for _, amp := range []float64{0, 0.06} {
				seed++
				d := withNoise(1000, 1000*trough, day, seed, amp)
				t.Run(fmt.Sprintf("day%v-trough%v-noise%v", day, trough, amp), func(t *testing.T) {
					t.Parallel()
					e := d.Envelope()
					if e == nil {
						t.Fatal("NewDiurnal built no envelope")
					}
					span := 1.5 * day
					for k := range samples {
						checkBracket(t, d, e, span*float64(k)/samples)
					}
					for i := range envBuckets * 3 / 2 {
						edge := float64(i) / envBuckets * day
						checkBracket(t, d, e, edge)
						checkBracket(t, d, e, math.Nextafter(edge, math.Inf(1)))
						if edge > 0 {
							checkBracket(t, d, e, math.Nextafter(edge, 0))
						}
					}
				})
			}
		}
	}
}

// TestDiurnalEnvelopeTightAndUnderPeak pins that Peak is a true
// majorant of the envelope, hence of Rate, over many traces, and that
// the envelope is narrow enough to decide almost every accept test.
func TestDiurnalEnvelopeTightAndUnderPeak(t *testing.T) {
	worst, width := 0.0, 0.0
	n := 0
	for seed := uint64(1); seed <= 200; seed++ {
		for _, trough := range []float64{0, 0.05, 0.2, 0.3} {
			d := NewDiurnal(500, 500*trough, 600, seed)
			peak := d.Peak()
			for _, b := range d.Envelope().b {
				worst = math.Max(worst, b.hi/peak)
				width += (b.hi - b.lo) / peak
				n++
			}
		}
	}
	t.Logf("max hi/Peak %.4f, mean width %.4f of Peak over %d buckets", worst, width/float64(n), n)
	if worst > 1 {
		t.Errorf("envelope reaches %.4f of Peak(): Peak is not a majorant", worst)
	}
	if mean := width / float64(n); mean > 0.015 {
		t.Errorf("mean envelope width %.4f of peak, want under 1.5%%", mean)
	}
}

// TestDiurnalEnvelopeInvalidation checks the envelope is withdrawn once
// a parameter it was built for changes, and never offered for a trace
// NewDiurnal did not build.
func TestDiurnalEnvelopeInvalidation(t *testing.T) {
	d := NewDiurnal(100, 20, 600, 3)
	if d.Envelope() == nil {
		t.Fatal("no envelope from NewDiurnal")
	}
	d.EveningPeak = 0.8
	if d.Envelope() != nil {
		t.Error("envelope still offered after EveningPeak changed")
	}
	if (&Diurnal{PeakQPS: 1, DayLength: 1}).Envelope() != nil {
		t.Error("envelope offered for a literal Diurnal")
	}
	var _ Enveloped = d
}

// TestEnvelopeBoundsOutsideDomain checks negative and non-finite times
// get the trivial bracket, which decides no accept test.
func TestEnvelopeBoundsOutsideDomain(t *testing.T) {
	e := NewDiurnal(100, 20, 600, 3).Envelope()
	for _, x := range []float64{-1, -1e-300, math.Inf(1), math.Inf(-1), math.NaN()} {
		if lo, hi := e.Bounds(x); lo != 0 || !math.IsInf(hi, 1) {
			t.Errorf("Bounds(%v) = [%v, %v], want [0, +Inf)", x, lo, hi)
		}
	}
}

// FuzzDiurnalEnvelope checks the bracket at arbitrary parameters and
// times: either the envelope declines to decide (the trivial bracket)
// or lo ≤ Rate(t) ≤ hi, and no bucket's hi exceeds Peak().
func FuzzDiurnalEnvelope(f *testing.F) {
	f.Add(1000.0, 200.0, 3600.0, uint64(0xC0FFEE5), 1234.5)
	f.Add(63.0, 3.15, 150.0, uint64(1), 0.0)
	f.Add(1e6, 0.0, 1e-3, uint64(7), 1e9)
	f.Fuzz(func(t *testing.T, peak, trough, day float64, seed uint64, at float64) {
		if !(peak > 0 && peak <= 1e12 && trough >= 0 && trough < peak && day > 0 && day <= 1e12) {
			t.Skip()
		}
		if math.IsNaN(at) || math.IsInf(at, 0) {
			t.Skip()
		}
		d := NewDiurnal(peak, trough, day, seed)
		e := d.Envelope()
		if lo, hi := e.Bounds(at); lo != 0 || !math.IsInf(hi, 1) {
			checkBracket(t, d, e, at)
		}
		p := d.Peak()
		for i, b := range e.b {
			if b.hi > p {
				t.Fatalf("bucket %d: hi %v above Peak() %v", i, b.hi, p)
			}
		}
	})
}
