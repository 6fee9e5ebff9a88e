package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/obs"
)

// heapSampleRate is the heap-profiled run's runtime.MemProfileRate: one sample
// per 4 KiB allocated, so a day's ~100 MB leaves ~25k samples to fold.
const heapSampleRate = 4096

// rateCheckFactor is how far apart trace.rate_ns × trace.rate_calls and
// the profile's trace CPU may be before the traced run warns that one
// of the two measurements is off.
const rateCheckFactor = 3.0

// runtimeCPU reads the runtime's cumulative GC CPU and its busy CPU
// (total minus idle), in seconds.
func runtimeCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// tracedDay is one observed run: its Result, host wall time, what the
// decorators and the sink saw, and its CPU profile folded by layer.
type tracedDay struct {
	res    *core.Result
	wall   float64
	traces []*timedTrace
	sink   *countSink
	cpuNS  map[string]int64
	gcCPU  float64 // runtime GC CPU seconds
	busy   float64 // runtime busy CPU seconds
}

// runTraced runs the scenario with every trace decorated and a counting
// sink on its bus, under a CPU profile that covers the run alone.
func runTraced(w workloadDef, sc core.Scenario) (tracedDay, error) {
	sc, tts := decorate(sc)
	sink := newCountSink()
	sc.Bus = obs.NewBus()
	sc.Bus.Attach(sink)
	runtime.GC()
	var prof bytes.Buffer
	gc0, busy0 := runtimeCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedDay{}, err
	}
	t0 := time.Now()
	res := w.run(sc)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	gc1, busy1 := runtimeCPU()
	cpuNS, err := cpuByLayer(prof.Bytes())
	return tracedDay{res: res, wall: wall, traces: tts, sink: sink, cpuNS: cpuNS,
		gcCPU: gc1 - gc0, busy: busy1 - busy0}, err
}

// profiledAllocs runs the scenario untraced between two allocs-profile
// snapshots taken at a fine sampling rate and folds the objects it
// allocated by layer. The untraced run is profiled, not a traced one,
// so the shares explain the end-to-end allocs and alloc_mb, which the
// sink's event records would otherwise dilute.
func profiledAllocs(w workloadDef, sc core.Scenario) (*core.Result, map[string]float64, error) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = heapSampleRate
	var before, after bytes.Buffer
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(&before, 0); err != nil {
		return nil, nil, err
	}
	res := w.run(sc)
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(&after, 0); err != nil {
		return res, nil, err
	}
	shares, err := allocsByLayer(before.Bytes(), after.Bytes())
	return res, shares, err
}

// perLayer reports the per-layer metrics. It runs the workload once
// under a heap profile, then in untraced and traced pairs, the traced
// run under a CPU profile, until the time budget is spent (at least one
// pair). Every run after the first must repeat its outputs exactly. A
// set-up sample precedes the first run and each pair, and the setup.*
// metrics are the fastest, as setup_s is. A run of the reference loop
// precedes each pair too: the host.* metrics are the raw fastest times
// that the end-to-end metrics scale.
func perLayer(w workloadDef, seed uint64, budget float64, stderr io.Writer) (rep report) {
	rep.Metrics = map[string]metric{}
	defer func() { rep.Correct = rep.Failed == 0 }()
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
		rep.Failed++
	}

	start := time.Now()
	sc, setup := setupSample(w, seed)
	floor := timerFloorNS()

	// The heap-profiled run comes first and sets the outputs every later
	// run of the seed must repeat.
	base, allocShares, err := profiledAllocs(w, sc)
	rep.Attempted++
	if err != nil {
		fail("heap profile: %v", err)
	}
	if base == nil {
		return rep
	}
	baseFP := fingerprint(base)
	m := modeledOf(base)
	if err := checkOutputs(base, m); err != nil {
		fail("check failed: %v", err)
	}
	base = nil

	// Untraced and traced runs alternate, so the overhead ratio compares
	// runs made under the same host conditions.
	var first tracedDay
	var walls, cpus, refs, tracedWalls, cpuPerWall []float64
	var ns int64
	var gcCPU, busy float64
	cpuNS := map[string]int64{}
	for {
		refs = append(refs, referenceTime())
		sc, st := setupSample(w, seed)
		setup = setup.fastest(st)
		res, hc := measureRun(w, sc)
		rep.Attempted++
		if fp := fingerprint(res); fp != baseFP {
			fail("untraced run %d gave outputs %s, first run gave %s", len(walls)+1, fp, baseFP)
		}
		walls = append(walls, hc.wall)
		cpus = append(cpus, hc.cpu)
		cpuPerWall = append(cpuPerWall, hc.cpu/hc.wall)

		d, err := runTraced(w, sc)
		rep.Attempted++
		if err != nil {
			fail("cpu profile: %v", err)
			break
		}
		if fp := fingerprint(d.res); fp != baseFP {
			fail("traced run %d gave outputs %s, untraced run gave %s", len(tracedWalls)+1, fp, baseFP)
		}
		tracedWalls = append(tracedWalls, d.wall)
		for _, t := range d.traces {
			ns += t.ns
		}
		for l, v := range d.cpuNS {
			cpuNS[l] += v
		}
		gcCPU += d.gcCPU
		busy += d.busy
		if first.res == nil {
			first = d
		}
		if time.Since(start).Seconds()+median(walls)+median(tracedWalls) > budget {
			break
		}
	}
	if first.res == nil {
		return rep
	}
	cpuTotal := sumValues(cpuNS)
	if cpuTotal == 0 {
		fail("cpu profile holds no samples")
		return rep
	}
	cpuShares := shares(cpuNS, cpuTotal)

	// Counts repeat exactly in every traced run of the seed; take the
	// first run's. Rate timings are summed over all of them.
	var calls uint64
	var accept float64
	for _, t := range first.traces {
		calls += t.calls
		accept += t.accept
	}
	allCalls := float64(calls) * float64(len(tracedWalls))
	rateNS := float64(ns)/allCalls - floor
	timedS := rateNS * allCalls / 1e9
	profiledS := cpuShares["trace"] * float64(cpuTotal) / 1e9
	rep.rateVsProfile = ratio(timedS, profiledS)
	fmt.Fprintf(stderr, "perfbench: timed Rate %.3g s, profiled trace CPU %.3g s (ratio %.2f)\n",
		timedS, profiledS, rep.rateVsProfile)
	if rep.rateVsProfile > rateCheckFactor || rep.rateVsProfile < 1/rateCheckFactor {
		fmt.Fprintf(stderr, "perfbench: warning: they disagree by more than %gx\n", rateCheckFactor)
	}

	res, s := first.res, first.sink
	blocked, samples := 0, 0
	for _, sr := range res.Services {
		blocked += sr.BlockedSwitches
		samples += sr.Collector.Latencies().Len()
	}
	for _, c := range res.Background {
		samples += c.Latencies().Len()
	}
	slDone := float64(s.completions["serverless"])

	rep.put("sim.events", "count", float64(res.Events))
	rep.put("sim.events_per_query", "ratio", float64(res.Events)/float64(m.queries))
	rep.put("trace.rate_calls", "count", float64(calls))
	rep.put("trace.rate_ns", "ns", rateNS)
	rep.put("trace.timer_floor_ns", "ns", floor)
	rep.put("arrival.accept_ratio", "ratio", accept/float64(calls))
	rep.put("serverless.completions", "count", slDone)
	rep.put("serverless.cold_starts", "count", float64(s.coldStarts))
	rep.put("serverless.cold_start_frac", "fraction", ratio(float64(s.coldStarts), slDone))
	rep.put("serverless.queue_wait_s", "s", ratio(s.queueWaitSum, float64(s.queueWaitSpan)))
	rep.put("iaas.completions", "count", float64(s.completions["iaas"]))
	rep.put("engine.switches", "count", float64(s.switches))
	rep.put("engine.blocked_switches", "count", float64(blocked))
	rep.put("controller.decisions", "count", float64(s.decisions))
	rep.put("monitor.heartbeats", "count", float64(s.heartbeats))
	rep.put("monitor.meter_samples", "count", float64(s.meterSamples))
	rep.put("monitor.meter_cpu_s", "s", res.MeterCPUSeconds)
	rep.put("metrics.samples", "count", float64(samples))
	rep.put("metrics.qos_met_frac", "fraction", m.qosMetFrac)
	rep.put("metrics.violation_frac", "fraction", m.violationFrac)
	rep.put("core.parallel_eff", "ratio", median(cpuPerWall)/float64(max(w.shards, 1)))
	rep.put("obs.events", "count", float64(s.events))
	rep.put("obs.trace_overhead", "ratio", median(tracedWalls)/median(walls))
	rep.put("runtime.gc_cpu_share", "fraction", ratio(gcCPU, busy))
	rep.put("host.wall_s", "s", slices.Min(walls))
	rep.put("host.cpu_s", "s", slices.Min(cpus))
	rep.put("host.ref_s", "s", slices.Min(refs))
	rep.put("setup.scenario_s", "s", setup.scenario)
	rep.put("setup.surfaces_s", "s", setup.surfaces)
	rep.put("setup.meters_s", "s", setup.meters)
	for _, l := range cpuLayers {
		rep.put(l+".cpu_share", "fraction", cpuShares[l])
	}
	for _, l := range allocLayers {
		rep.put(l+".alloc_share", "fraction", allocShares[l])
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %#x: %d traced runs, outputs %s\n", w.name, seed, len(tracedWalls), baseFP)
	return rep
}

// cpuLayers and allocLayers are the layers whose profile shares are
// reported.
var (
	cpuLayers = []string{"sim", "trace", "arrival", "serverless", "iaas", "engine", "controller",
		"monitor", "metrics", "resources", "core", "obs", "runtime"}
	allocLayers = []string{"serverless", "iaas", "monitor", "metrics"}
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
