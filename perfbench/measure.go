package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
)

// cpuSeconds is the process's user+sys CPU time, every thread included
// (GC workers and shard workers alike).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostCost is what one simulated day cost the host.
type hostCost struct {
	wall, cpu     float64 // seconds
	allocBytes    uint64
	allocObjects  uint64
	retainedBytes uint64 // live-heap growth while the Result is held
}

// measureRun runs the scenario once from a collected heap and reports
// its host cost. The returned Result is the run's own.
func measureRun(w workloadDef, sc core.Scenario) (*core.Result, hostCost) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c0 := cpuSeconds()
	t0 := time.Now()
	res := w.run(sc)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&after)
	hc := hostCost{
		wall:         wall,
		cpu:          cpu,
		allocBytes:   after.TotalAlloc - before.TotalAlloc,
		allocObjects: after.Mallocs - before.Mallocs,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		hc.retainedBytes = after.HeapAlloc - before.HeapAlloc
	}
	runtime.KeepAlive(res)
	return res, hc
}

// modeled is the paper's answer for one run, computed from the public
// Result accessors. Every field repeats exactly per seed.
type modeled struct {
	queries       int     // completed queries, managed plus background
	managed       int     // completed managed queries
	p95OverQoS    float64 // worst managed service
	qosMetFrac    float64
	violationFrac float64
	cpuCoreS      float64 // managed IaaS + serverless CPU integral
	memGBs        float64 // managed IaaS + serverless memory integral
}

func modeledOf(res *core.Result) modeled {
	var m modeled
	met, violations := 0, 0.0
	for _, name := range sortedKeys(res.Services) {
		sr := res.Services[name]
		c := sr.Collector
		n := c.Count()
		m.managed += n
		if r := c.P95() / c.QoSTarget; r > m.p95OverQoS {
			m.p95OverQoS = r
		}
		if c.QoSMet() {
			met++
		}
		violations += math.Round(c.ViolationFraction() * float64(n))
		u := sr.TotalUsage()
		m.cpuCoreS += u.CPU
		m.memGBs += u.MemMB / 1024
	}
	m.queries = m.managed
	for _, c := range res.Background {
		m.queries += c.Count()
	}
	m.qosMetFrac = float64(met) / float64(len(res.Services))
	if m.managed > 0 {
		m.violationFrac = violations / float64(m.managed)
	}
	return m
}

// fingerprint digests every simulated output the checks compare: the
// event count, per-service completions by backend, p95s, violation
// counts, switch and blocked-switch counts, usage integrals and the
// meters' CPU cost. Floats are written with all their digits, so equal
// fingerprints mean bit-identical outputs.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(&b, "events %d meter_cpu %s\n", res.Events, f(res.MeterCPUSeconds))
	for _, name := range sortedKeys(res.Services) {
		sr := res.Services[name]
		c := sr.Collector
		fmt.Fprintf(&b, "svc %s n %d iaas %d sl %d p95 %s viol %s sw %d/%d blocked %d dec %d",
			name, c.Count(), c.BackendCount(metrics.BackendIaaS), c.BackendCount(metrics.BackendServerless),
			f(c.P95()), f(c.ViolationFraction()),
			sr.Timeline.SwitchCount(metrics.BackendServerless), sr.Timeline.SwitchCount(metrics.BackendIaaS),
			sr.BlockedSwitches, len(sr.Decisions))
		for _, u := range []float64{sr.IaaSUsage.CPU, sr.IaaSUsage.MemMB, sr.ServerlessUsage.CPU,
			sr.ServerlessUsage.MemMB, sr.ConsumedCPUSeconds} {
			fmt.Fprintf(&b, " %s", f(u))
		}
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(res.Background) {
		c := res.Background[name]
		fmt.Fprintf(&b, "bg %s n %d p95 %s\n", name, c.Count(), f(c.P95()))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (mean of the two middle values for an
// even count). It panics on an empty slice, which no caller produces.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
