package core

import (
	"fmt"

	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// SyntheticFleet generates an O(n)-service fleet-shaped scenario input:
// n managed services cycling through the five profiled archetypes, with
// per-service diurnal arrival rates skewed Zipf-style (service i's peak
// scales as 1/(1+i mod 10), plus seeded jitter) so a few services carry
// most of the load — the shape a fleet-scale scheduler actually sees.
// Profiles keep their archetype's numeric content (only the name
// changes), so provisioning and the memoised latency surfaces are
// shared across clones; the skew lives entirely in the arrival traces.
//
// The traces follow one compressed 3600-s diurnal day. The fleet is
// deterministic in (n, seed) and independent of shard count; the sharded
// benchmarks and determinism tests build their scenarios from it. It
// panics if n is not positive.
func SyntheticFleet(n int, seed uint64) []ServiceSpec {
	return syntheticFleet(n, seed, units.Seconds(3600))
}

// syntheticFleet is SyntheticFleet with the traces' diurnal day length
// given. It panics if n is not positive.
func syntheticFleet(n int, seed uint64, dayLength units.Seconds) []ServiceSpec {
	if n < 1 {
		panic(fmt.Sprintf("core: SyntheticFleet needs a positive service count, got %d", n))
	}
	archetypes := []workload.Profile{
		workload.Float(),
		workload.Matmul(),
		workload.Linpack(),
		workload.DD(),
		workload.CloudStor(),
	}
	specs := make([]ServiceSpec, 0, n)
	for i := 0; i < n; i++ {
		prof := archetypes[i%len(archetypes)]
		prof.Name = fmt.Sprintf("svc_%03d_%s", i, prof.Name)
		// Zipf-ish skew over the fleet index, folded at 10 so every
		// archetype gets both hot and cold instances, with a seeded
		// jitter in [0.75, 1.25) so equal ranks still differ.
		rank := i%10 + 1
		jitter := 0.75 + 0.5*float64(shardSeed(seed, i)%1024)/1024
		peak := prof.PeakQPS * jitter / float64(rank)
		specs = append(specs, ServiceSpec{
			Profile: prof,
			Trace:   trace.NewDiurnal(peak, peak*0.25, dayLength.Raw(), seed+uint64(i)),
		})
	}
	return specs
}

// FleetScenario wraps a SyntheticFleet into a runnable scenario with
// the standard background tenants, for benchmarks and tests that need a
// large fleet without hand-assembly. The fleet and the tenants share one
// diurnal day of the given duration.
func FleetScenario(n int, seed uint64, duration units.Seconds) Scenario {
	return Scenario{
		Variant:    VariantAmoeba,
		Services:   syntheticFleet(n, seed, duration),
		Background: BackgroundTenants(duration, seed),
		Duration:   duration,
		Seed:       seed,
	}
}
