package arrival

import (
	"math"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/trace"
)

func TestPoissonRateMatchesConstantTrace(t *testing.T) {
	s := sim.New(1)
	var n int
	g := New(s, trace.Constant{QPS: 50}, func(sim.Time) { n++ })
	g.Start()
	s.Run(1000)
	want := 50_000.0
	if math.Abs(float64(n)-want)/want > 0.02 {
		t.Fatalf("got %d arrivals over 1000s at 50 QPS, want ~%v", n, want)
	}
	if g.Count() != uint64(n) {
		t.Errorf("Count = %d, callback fired %d times", g.Count(), n)
	}
}

func TestThinningTracksTimeVaryingRate(t *testing.T) {
	s := sim.New(2)
	var early, late int
	g := New(s, trace.Step{Before: 10, After: 100, At: 500}, func(tt sim.Time) {
		if tt < 500 {
			early++
		} else {
			late++
		}
	})
	g.Start()
	s.Run(1000)
	// Expect ~5000 before, ~50000 after.
	if math.Abs(float64(early)-5000) > 400 {
		t.Errorf("early arrivals %d, want ~5000", early)
	}
	if math.Abs(float64(late)-50000) > 1500 {
		t.Errorf("late arrivals %d, want ~50000", late)
	}
}

func TestInterarrivalsExponential(t *testing.T) {
	// For a constant-rate process the interarrival CV must be ~1.
	s := sim.New(3)
	var prev float64
	var diffs []float64
	g := New(s, trace.Constant{QPS: 20}, func(tt sim.Time) {
		diffs = append(diffs, float64(tt)-prev)
		prev = float64(tt)
	})
	g.Start()
	s.Run(2000)
	mean, m2 := 0.0, 0.0
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(len(diffs))
	for _, d := range diffs {
		m2 += (d - mean) * (d - mean)
	}
	cv := math.Sqrt(m2/float64(len(diffs)-1)) / mean
	if math.Abs(cv-1) > 0.05 {
		t.Fatalf("interarrival CV = %v, want ~1 (exponential)", cv)
	}
}

func TestStop(t *testing.T) {
	s := sim.New(4)
	var n int
	g := New(s, trace.Constant{QPS: 100}, func(sim.Time) { n++ })
	g.Start()
	s.At(10, func() { g.Stop() })
	s.Run(100)
	// ~1000 arrivals in the first 10s, none after.
	if n < 800 || n > 1200 {
		t.Fatalf("arrivals after Stop: n=%d, want ~1000", n)
	}
}

func TestZeroTraceGeneratesNothing(t *testing.T) {
	s := sim.New(5)
	g := New(s, trace.Constant{QPS: 0}, func(sim.Time) { t.Error("arrival from zero trace") })
	g.Start()
	s.Run(100)
	if g.Count() != 0 {
		t.Errorf("Count = %d", g.Count())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := sim.New(42)
		var times []float64
		g := New(s, trace.Constant{QPS: 10}, func(tt sim.Time) { times = append(times, float64(tt)) })
		g.Start()
		s.Run(50)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	New(s, trace.Constant{QPS: 1}, nil)
}

// onOff is a 10-s square wave between 200 QPS and zero: its zero halves
// reject far more than maxSkip candidates in a row.
type onOff struct{}

func (onOff) Rate(t float64) float64 {
	if math.Mod(t, 10) < 5 {
		return 200
	}
	return 0
}
func (onOff) Peak() float64 { return 200 }

// TestZeroAllocFire asserts the steady-state thinning loop allocates
// nothing once the kernel's slab is warm: accept tests with and without
// an envelope, arrival delivery, the draw-ahead through rejections and
// the checkpoints a zero-rate stretch leaves.
//
//amoeba:alloctest arrival.Generator.fire arrival.Generator.advance
//amoeba:alloctest arrival.Generator.accept arrival.Generator.skip
//amoeba:alloctest trace.Envelope.Bounds
func TestZeroAllocFire(t *testing.T) {
	for _, tr := range []trace.Trace{
		trace.Constant{QPS: 200},
		trace.NewDiurnal(200, 40, 100, 6),
		onOff{},
	} {
		s := sim.New(6)
		g := New(s, tr, func(sim.Time) {})
		g.Start()
		s.Run(50) // warm: slab, free list and heap at steady-state capacity

		horizon := s.Now()
		events, arrivals := s.Events(), g.Count()
		allocs := testing.AllocsPerRun(100, func() {
			horizon += 5
			s.Run(horizon)
		})
		if allocs != 0 {
			t.Errorf("%T: arrival candidates allocate %.3f objects per 5s batch, want 0", tr, allocs)
		}
		if g.Count() == 0 {
			t.Fatalf("%T: generator produced no arrivals", tr)
		}
		if _, zero := tr.(onOff); zero && s.Events()-events <= g.Count()-arrivals {
			t.Fatalf("%T: no checkpoints fired", tr)
		}
	}
}
