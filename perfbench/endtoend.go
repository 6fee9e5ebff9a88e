package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
)

const (
	// setupBatch is the least host time one set-up sample covers; a
	// set-up quicker than that repeats within the sample.
	setupBatch = 0.005 // seconds
	// minRounds is the fewest whole rounds over the batch per invocation:
	// two days of each scenario are needed for the determinism check.
	minRounds = 2
)

// setupSample times one sample of cold set-ups (as many as fill
// setupBatch) and returns the scenario of the last, whose profile cache
// is left warm, with the mean time per set-up and per step. The
// collector is paused during the sample and a collection precedes it,
// so the sample counts allocation but not collection pacing.
func setupSample(w workloadDef, seed uint64) (core.Scenario, setupTimes) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var sc core.Scenario
	var sum setupTimes
	n := 0
	for sum.total < setupBatch || n == 0 {
		var st setupTimes
		sc, st = w.coldSetup(seed)
		sum.total += st.total
		sum.scenario += st.scenario
		sum.meters += st.meters
		sum.surfaces += st.surfaces
		n++
	}
	k := float64(n)
	return sc, setupTimes{total: sum.total / k, scenario: sum.scenario / k,
		meters: sum.meters / k, surfaces: sum.surfaces / k}
}

// fastest keeps, step by step, the lower of two set-up timings.
func (s setupTimes) fastest(o setupTimes) setupTimes {
	return setupTimes{total: min(s.total, o.total), scenario: min(s.scenario, o.scenario),
		meters: min(s.meters, o.meters), surfaces: min(s.surfaces, o.surfaces)}
}

// checkOutputs verifies invariants every run must hold, independent of
// seed: work was done, each service's completions split exactly into
// its backends, and the modeled figures are finite and in range.
func checkOutputs(res *core.Result, m modeled) error {
	if res.Events == 0 || m.managed == 0 || uint64(m.queries) > res.Events {
		return fmt.Errorf("implausible run: %d events, %d queries (%d managed)", res.Events, m.queries, m.managed)
	}
	for name, sr := range res.Services {
		c := sr.Collector
		if c.BackendCount(metrics.BackendIaaS)+c.BackendCount(metrics.BackendServerless) != c.Count() {
			return fmt.Errorf("service %s: backend counts do not sum to %d completions", name, c.Count())
		}
		if u := sr.TotalUsage(); u.CPU < 0 || u.MemMB < 0 {
			return fmt.Errorf("service %s: negative usage integral %+v", name, u)
		}
	}
	if !(m.p95OverQoS > 0) || m.qosMetFrac < 0 || m.qosMetFrac > 1 ||
		m.violationFrac < 0 || m.violationFrac > 1 || !(m.cpuCoreS > 0) || !(m.memGBs > 0) {
		return fmt.Errorf("modeled outputs out of range: %+v", m)
	}
	return nil
}

// endToEnd measures, in rounds until the time budget is spent (at least
// minRounds), one untraced day of each of the workload's batch of
// scenarios, generated from sub-seeds of seed. Every round must repeat
// each scenario's outputs exactly. Before every day it times one run of
// the reference loop and one cold set-up sample, and each host time is
// taken as a ratio to that reference run. Each metric is a mean over the
// batch of each scenario's median: the host-time ratios scaled by
// refNominal, the memory figures, and the modeled outputs, which repeat.
// setup_s is the median set-up ratio, scaled the same way.
//
// On a shared host a neighbour's load slows the simulator and the
// reference loop alike, in phases of seconds to minutes: on a shared
// 2-core VM, over five 40-s runs each, the mean fastest day spread by
// 0.12 (amoeba-day) and 0.18 (amoeba-sharded) across runs, and the mean
// median ratio to the reference run just before by 0.02. A batch of
// scenarios, so that one seed's cost does not stand for the workload's.
func endToEnd(w workloadDef, seed uint64, budget float64, stderr io.Writer) report {
	rep := report{Metrics: map[string]metric{}}
	type scenarioRuns struct {
		seed                                   uint64
		walls, cpus, allocMB, allocs, retained []float64 // host times as ratios to the reference
		first                                  modeled
		firstFP                                string
	}
	batch := make([]scenarioRuns, w.batch)
	for i := range batch {
		batch[i].seed = subSeed(seed, i)
	}
	var days, setups, refs []float64
	start := time.Now()
measure:
	for round := 0; ; round++ {
		for i := range batch {
			b := &batch[i]
			ref := referenceTime()
			sc, st := setupSample(w, b.seed)
			res, hc := measureRun(w, sc)
			m := modeledOf(res)
			fp := fingerprint(res)
			rep.Attempted++
			switch {
			case round == 0:
				b.first, b.firstFP = m, fp
				if err := checkOutputs(res, m); err != nil {
					fmt.Fprintf(stderr, "perfbench: seed %#x: check failed: %v\n", b.seed, err)
					rep.Failed++
				}
			case fp != b.firstFP:
				fmt.Fprintf(stderr, "perfbench: round %d of seed %#x gave outputs %s, round 1 gave %s\n",
					round+1, b.seed, fp, b.firstFP)
				rep.Failed++
			}
			refs = append(refs, ref)
			setups = append(setups, st.total/ref)
			b.walls = append(b.walls, hc.wall/ref)
			b.cpus = append(b.cpus, hc.cpu/ref)
			b.allocMB = append(b.allocMB, float64(hc.allocBytes)/1e6)
			b.allocs = append(b.allocs, float64(hc.allocObjects))
			b.retained = append(b.retained, float64(hc.retainedBytes)/1e6)
			days = append(days, hc.wall)
			if round >= minRounds && time.Since(start).Seconds()+median(days) > budget {
				break measure
			}
		}
	}
	var wall, cpu, allocMB, allocs, retained, queries float64
	var m modeled
	for _, b := range batch {
		wall += median(b.walls) * refNominal
		cpu += median(b.cpus) * refNominal
		allocMB += median(b.allocMB)
		allocs += median(b.allocs)
		retained += median(b.retained)
		queries += float64(b.first.queries)
		m.p95OverQoS += b.first.p95OverQoS
		m.cpuCoreS += b.first.cpuCoreS
		m.memGBs += b.first.memGBs
	}
	k := float64(len(batch))
	rep.Correct = rep.Failed == 0
	rep.put("norm_ns_per_query", "ns", wall*1e9/queries)
	rep.put("norm_wall_s", "s", wall/k)
	rep.put("norm_cpu_s", "s", cpu/k)
	rep.put("alloc_mb", "MB", allocMB/k)
	rep.put("allocs", "count", allocs/k)
	rep.put("retained_mb", "MB", retained/k)
	rep.put("setup_s", "s", median(setups)*refNominal)
	rep.put("p95_over_qos", "ratio", m.p95OverQoS/k)
	rep.put("cpu_core_s", "core.s", m.cpuCoreS/k)
	rep.put("mem_gb_s", "GB.s", m.memGBs/k)
	fmt.Fprintf(stderr, "perfbench: %s seed %#x: %d scenarios, %d days; host seconds, median: day %.4g, reference %.4g\n",
		w.name, seed, len(batch), rep.Attempted, median(days), median(refs))
	return rep
}
