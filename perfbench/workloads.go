package main

import (
	"fmt"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/serverless"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// defaultSeed is the repository's standard scenario seed.
const defaultSeed = 0xA0EBA

// troughFraction is the diurnal night trough as a share of peak, the
// experiments' default.
const troughFraction = 0.2

// workloadDef is one named benchmark workload: a scenario generated from
// a seed, the kernel it runs on (shards == 0 is sequential core.Run), and
// how many scenarios, from sub-seeds of the workload seed, one
// end-to-end run measures.
type workloadDef struct {
	name   string
	shards int
	batch  int
	build  func(seed uint64) core.Scenario
}

var workloads = []workloadDef{
	{name: "amoeba-day", batch: 4, build: func(seed uint64) core.Scenario {
		return oneService(core.VariantAmoeba, units.Seconds(3600), seed)
	}},
	{name: "amoeba-sharded", shards: 2, batch: 4, build: func(seed uint64) core.Scenario {
		return oneService(core.VariantAmoeba, units.Seconds(3600), seed)
	}},
	{name: "openwhisk-backlog", batch: 4, build: func(seed uint64) core.Scenario {
		return oneService(core.VariantOpenWhisk, units.Seconds(150), seed)
	}},
}

// oneService is dd under variant v for one diurnal day of the given
// length with the three §VII-A background tenants, the shape of the
// paper's per-benchmark scenarios.
func oneService(v core.Variant, day units.Seconds, seed uint64) core.Scenario {
	prof := workload.DD()
	return core.Scenario{
		Variant: v,
		Services: []core.ServiceSpec{{
			Profile: prof,
			Trace:   trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*troughFraction, day.Raw(), seed),
		}},
		Background: core.BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
	}
}

// subSeed is the seed of scenario i of a batch: a splitmix64 step from
// the workload seed, so neighbouring workload seeds share no scenario.
func subSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// run executes the scenario on the workload's kernel.
func (w workloadDef) run(sc core.Scenario) *core.Result {
	if w.shards > 0 {
		return core.RunSharded(sc, w.shards)
	}
	return core.Run(sc)
}

// setupTimes is one cold set-up: the scenario built from the seed and
// the profile cache filled from empty.
type setupTimes struct {
	total, scenario, meters, surfaces float64 // host seconds
}

// coldSetup clears the process-wide profile cache, then builds the
// scenario, the meter curves and every managed service's latency
// surfaces. Every workload sets up the same way: the Amoeba variants'
// runs read the profiles (the cache is left warm, so the run that
// follows pays no profiling), while the OpenWhisk run reads none, and
// there the profiles are the process's set-up beside a scenario that
// alone builds in a few microseconds, too little to time steadily.
func (w workloadDef) coldSetup(seed uint64) (core.Scenario, setupTimes) {
	core.ResetProfileCache()
	t0 := time.Now()
	sc := w.build(seed)
	t1 := time.Now()
	cfg := serverless.DefaultConfig()
	core.MeterCurves(cfg)
	t2 := time.Now()
	for _, s := range sc.Services {
		core.SurfaceSet(s.Profile, cfg)
	}
	t3 := time.Now()
	return sc, setupTimes{total: t3.Sub(t0).Seconds(), scenario: t1.Sub(t0).Seconds(),
		meters: t2.Sub(t1).Seconds(), surfaces: t3.Sub(t2).Seconds()}
}
