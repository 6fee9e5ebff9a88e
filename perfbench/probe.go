package main

import (
	"time"

	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/trace"
)

// timedTrace decorates a trace.Trace and times every Rate call, which
// the arrival generator makes once per thinning candidate. It also sums
// Rate/Peak, the candidate's acceptance probability. Each trace drives
// one generator, so on the sharded kernel a decorator is only touched by
// the worker running its cell, and the epoch barrier orders the reads.
type timedTrace struct {
	inner  trace.Trace
	peak   float64
	calls  uint64
	ns     int64
	accept float64
}

func (t *timedTrace) Rate(x float64) float64 {
	start := time.Now()
	r := t.inner.Rate(x)
	t.ns += int64(time.Since(start))
	t.calls++
	t.accept += r / t.peak
	return r
}

func (t *timedTrace) Peak() float64 {
	t.peak = t.inner.Peak()
	return t.peak
}

// noopTrace costs nothing, so timing its Rate measures the decorator's
// timer floor.
type noopTrace struct{}

func (noopTrace) Rate(float64) float64 { return 1 }
func (noopTrace) Peak() float64        { return 1 }

// timerFloorNS is the mean ns the decorator reads around a Rate call
// that does no work: the cost of the two clock reads it adds.
func timerFloorNS() float64 {
	const calls = 1 << 20
	t := &timedTrace{inner: noopTrace{}}
	t.Peak()
	for i := 0; i < calls; i++ {
		t.Rate(float64(i))
	}
	return float64(t.ns) / calls
}

// decorate returns a copy of sc whose every service and background trace
// is wrapped in a timedTrace, and the decorators in scenario order.
func decorate(sc core.Scenario) (core.Scenario, []*timedTrace) {
	var tts []*timedTrace
	wrap := func(specs []core.ServiceSpec) []core.ServiceSpec {
		out := make([]core.ServiceSpec, len(specs))
		for i, s := range specs {
			tt := &timedTrace{inner: s.Trace}
			tts = append(tts, tt)
			out[i] = core.ServiceSpec{Profile: s.Profile, Trace: tt}
		}
		return out
	}
	sc.Services = wrap(sc.Services)
	sc.Background = wrap(sc.Background)
	return sc, tts
}

// countSink is an obs.Sink that counts the events each layer emits.
type countSink struct {
	events        uint64
	completions   map[string]uint64 // by backend
	coldStarts    uint64            // query-visible cold starts
	decisions     uint64
	switches      uint64
	heartbeats    uint64
	meterSamples  uint64
	queueWaitSum  float64 // simulated seconds
	queueWaitSpan uint64
}

func newCountSink() *countSink { return &countSink{completions: map[string]uint64{}} }

func (c *countSink) Consume(ev obs.Event) {
	c.events++
	switch e := ev.(type) {
	case *obs.QueryComplete:
		c.completions[e.Backend]++
	case *obs.ColdStart:
		if !e.Prewarm {
			c.coldStarts++
		}
	case *obs.DecisionEvent:
		c.decisions++
	case *obs.SwitchSpan:
		c.switches++
	case *obs.HeartbeatSample:
		c.heartbeats++
	case *obs.MeterSample:
		c.meterSamples++
	case *obs.PhaseSpan:
		if e.Phase == obs.PhaseQueueWait {
			c.queueWaitSum += (e.End - e.Start).Raw()
			c.queueWaitSpan++
		}
	}
}
