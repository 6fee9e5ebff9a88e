package arrival

import (
	"fmt"
	"testing"

	"amoeba/internal/sim"
	"amoeba/internal/trace"
)

// refGenerator is the per-candidate thinning generator Generator
// replaced: every candidate is its own kernel event and every accept
// test calls Rate. The differential tests hold Generator to it.
type refGenerator struct {
	sim       *sim.Simulator
	rng       *sim.RNG
	trace     trace.Trace
	onArrival func(t sim.Time)
	stopped   bool
	peak      float64
	fireFn    func()
}

func newRef(s *sim.Simulator, tr trace.Trace, onArrival func(t sim.Time)) *refGenerator {
	return &refGenerator{sim: s, rng: s.RNG().Split(), trace: tr, onArrival: onArrival}
}

func (g *refGenerator) Start() {
	g.peak = g.trace.Peak()
	if g.peak <= 0 {
		return
	}
	g.fireFn = g.fire
	g.sim.After(g.rng.Exp(g.peak), g.fireFn)
}

func (g *refGenerator) fire() {
	if g.stopped {
		return
	}
	now := g.sim.Now()
	if g.rng.Float64() < g.trace.Rate(float64(now))/g.peak {
		g.onArrival(now)
	}
	if g.stopped {
		return
	}
	g.sim.After(g.rng.Exp(g.peak), g.fireFn)
}

func (g *refGenerator) Stop() { g.stopped = true }

// arrivalRec is one delivered arrival and the generator's RNG state at
// the moment of delivery. Both generators have then drawn exactly the
// candidates up to and including this one, so the states must agree.
type arrivalRec struct {
	t   sim.Time
	rng sim.RNG
}

// stopPlan says when a differential run stops its generator: after the
// n-th arrival from inside onArrival, or at time at from another event.
// The zero plan never stops.
type stopPlan struct {
	afterN int
	at     sim.Time
}

// diffRun runs tr on a fresh simulator under both generators and
// returns each one's arrivals and final RNG state.
func diffRun(seed uint64, tr trace.Trace, horizon sim.Time, plan stopPlan) (got, want []arrivalRec, gotRNG, wantRNG sim.RNG) {
	{
		s := sim.New(seed)
		var g *Generator
		g = New(s, tr, func(t sim.Time) {
			got = append(got, arrivalRec{t, *g.rng})
			if len(got) == plan.afterN {
				g.Stop()
			}
		})
		if plan.at > 0 {
			s.At(plan.at, g.Stop)
		}
		g.Start()
		s.Run(horizon)
		gotRNG = *g.rng
	}
	{
		s := sim.New(seed)
		var g *refGenerator
		g = newRef(s, tr, func(t sim.Time) {
			want = append(want, arrivalRec{t, *g.rng})
			if len(want) == plan.afterN {
				g.Stop()
			}
		})
		if plan.at > 0 {
			s.At(plan.at, g.Stop)
		}
		g.Start()
		s.Run(horizon)
		wantRNG = *g.rng
	}
	return got, want, gotRNG, wantRNG
}

func checkSame(t *testing.T, got, want []arrivalRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d arrivals, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].t != want[i].t {
			t.Fatalf("arrival %d at %v, reference at %v", i, got[i].t, want[i].t)
		}
		if got[i].rng != want[i].rng {
			t.Fatalf("arrival %d at %v: RNG state differs from the reference", i, got[i].t)
		}
	}
}

// zeroGapTrace is a sampled trace whose rate is zero on [300, 700]: far
// more than maxSkip candidates in a row are rejected there.
func zeroGapTrace(t *testing.T) trace.Trace {
	t.Helper()
	tr, err := trace.NewSampled(
		[]float64{0, 100, 299, 300, 700, 701, 900},
		[]float64{5, 30, 20, 0, 0, 25, 10})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// diffCase is one trace under differential test; horizon covers about
// one and a half periods of it.
type diffCase struct {
	name    string
	tr      trace.Trace
	horizon sim.Time
}

func diffCases(t *testing.T) []diffCase {
	cases := []diffCase{
		{"constant", trace.Constant{QPS: 40}, 200},
		{"step-down", trace.Step{Before: 30, After: 5, At: 60}, 200},
		{"step-up", trace.Step{Before: 2, After: 25, At: 60}, 200},
		{"sampled-zero-gap", zeroGapTrace(t), 1000},
	}
	for _, day := range []float64{150, 1200, 3600} {
		for _, trough := range []float64{0.05, 0.2, 0.3} {
			// About 6000 arrivals per run whatever the day length.
			peak := 6000 / (1.5 * day * (trough + 0.4))
			d := trace.NewDiurnal(peak, peak*trough, day, uint64(day)+uint64(trough*100))
			cases = append(cases, diffCase{fmt.Sprintf("diurnal-day%v-trough%v", day, trough), d, sim.Time(1.5 * day)})
		}
	}
	d := trace.NewDiurnal(20, 4, 600, 11)
	cases = append(cases, diffCase{"burst-diurnal", trace.Burst{Inner: d, Extra: 30, From: 200, To: 260}, 900})
	return cases
}

// TestDifferentialAgainstPerCandidateReference holds the heap-free
// generator to the per-candidate one it replaced: over many seeds of
// every trace shape, the arrival times must be bit-identical and the RNG
// state must agree at every arrival.
func TestDifferentialAgainstPerCandidateReference(t *testing.T) {
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				got, want, _, _ := diffRun(seed, c.tr, c.horizon, stopPlan{})
				if len(want) == 0 {
					t.Fatalf("seed %d: reference produced no arrivals", seed)
				}
				checkSame(t, got, want)
			}
		})
	}
}

// TestDifferentialStop covers both ways a generator stops: from its own
// onArrival, after which neither generator may draw again, and from an
// unrelated event, after which neither may deliver again.
func TestDifferentialStop(t *testing.T) {
	d := trace.NewDiurnal(30, 6, 300, 5)
	for seed := uint64(1); seed <= 20; seed++ {
		got, want, gotRNG, wantRNG := diffRun(seed, d, 450, stopPlan{afterN: 500})
		checkSame(t, got, want)
		if len(got) != 500 {
			t.Fatalf("seed %d: %d arrivals, want exactly 500 before the in-callback Stop", seed, len(got))
		}
		if gotRNG != wantRNG {
			t.Fatalf("seed %d: RNG state after an in-callback Stop differs from the reference", seed)
		}

		got, want, _, _ = diffRun(seed, d, 450, stopPlan{at: 123.4})
		checkSame(t, got, want)
		if n := len(got); n == 0 || got[n-1].t >= 123.4 {
			t.Fatalf("seed %d: arrivals did not stop at 123.4", seed)
		}
	}
}

// TestZeroRateStretchTerminates runs a trace that drops to zero forever
// far past the drop: the generator must keep returning to the kernel
// (one checkpoint per maxSkip rejections) with a single pending event.
func TestZeroRateStretchTerminates(t *testing.T) {
	const peak, horizon = 50.0, 1e5
	s := sim.New(8)
	g := New(s, trace.Step{Before: peak, After: 0, At: 10}, func(sim.Time) {})
	g.Start()
	maxPending := 0
	stop := s.Every(100, func() { maxPending = max(maxPending, s.Pending()) })
	s.Run(horizon)
	stop()
	if s.Now() != horizon {
		t.Fatalf("run stopped at %v, want the %v horizon", s.Now(), float64(horizon))
	}
	if maxPending > 2 { // the probe's own ticker plus the generator's event
		t.Errorf("up to %d events pending, want at most 2", maxPending)
	}
	// ~peak·horizon candidates, one checkpoint per maxSkip of them.
	if limit := 1.1*peak*horizon/maxSkip + horizon/100 + float64(g.Count()); float64(s.Events()) > limit {
		t.Errorf("%d events fired, want at most %.0f", s.Events(), limit)
	}
	if g.Count() < 400 || g.Count() > 600 {
		t.Errorf("%d arrivals before the drop, want ~500", g.Count())
	}
}
