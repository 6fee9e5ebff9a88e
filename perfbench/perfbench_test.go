package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/trace"
)

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"math under Diurnal.Rate", []string{
			"math.sin", "math.Sin",
			"amoeba/internal/trace.(*Diurnal).Rate",
			"amoeba/internal/arrival.(*Generator).fire",
			"amoeba/internal/sim.(*Simulator).Run",
			"amoeba/internal/core.Run",
		}, "trace"},
		{"mallocgc under iaas.startQuery", []string{
			"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject",
			"amoeba/internal/iaas.(*Platform).startQuery",
			"amoeba/internal/iaas.(*Platform).Invoke",
			"amoeba/internal/core.Run.func1",
		}, "iaas"},
		{"GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "runtime"},
		{"units value type counts for its caller", []string{
			"amoeba/internal/units.Seconds.Raw",
			"amoeba/internal/serverless.(*Platform).pump",
		}, "serverless"},
		{"folded module", []string{"amoeba/internal/pca.FitRegression", "amoeba/internal/monitor.(*Monitor).recalibrate"}, "monitor"},
		{"benchmark probe", []string{"time.Now", "main.(*timedTrace).Rate", "amoeba/internal/arrival.(*Generator).fire"}, "obs"},
		{"benchmark probe under test", []string{"amoeba/perfbench.(*countSink).Consume", "amoeba/internal/obs.(*Bus).Emit"}, "obs"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("%s: folded to %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCPUProfileFold profiles a loop over Diurnal.Rate, decodes the
// profile, and checks that samples whose innermost frame is in math are
// charged to trace and that no module appears besides trace, runtime
// and obs (the loop itself is this package's code, which folds to obs).
func TestCPUProfileFold(t *testing.T) {
	d := trace.NewDiurnal(100, 20, 3600, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	sum := 0.0
	for start := time.Now(); time.Since(start) < time.Second; {
		for i := 0; i < 1000; i++ {
			sum += d.Rate(float64(i))
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mathSamples := 0
	for _, s := range p.samples {
		var fns []string
		for _, loc := range s.locations {
			for _, f := range p.locations[loc] {
				fns = append(fns, p.strings[p.functions[f]])
			}
		}
		if len(fns) > 0 && strings.HasPrefix(fns[0], "math.") {
			mathSamples++
			if l := foldStack(fns); l != "trace" {
				t.Errorf("math sample %v charged to %s, want trace", fns, l)
			}
		}
	}
	if mathSamples == 0 || sum == 0 {
		t.Error("no sample has a math frame innermost")
	}
	by := p.fold(p.valueIndex("cpu"))
	for l := range by {
		if l != "trace" && l != "runtime" && l != "obs" {
			t.Errorf("a Rate loop charged CPU to %s (by layer %v)", l, by)
		}
	}
}

// benchmarkSpec is BENCHMARK.json's metric lists.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless the report is correct and carries exactly
// the named metrics with their units.
func checkMetrics(t *testing.T, label string, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", label, len(rep.Metrics), len(want))
	}
}

// TestWorkloadsReportEveryMetric runs every workload BENCHMARK.json
// lists, untraced and traced, on a short budget. Each must pass its
// output checks and report exactly the listed metrics. On amoeba-day,
// which exercises every module, each layer must also have done work:
// the counts that do not depend on sampling must be non-zero, and so
// must the CPU shares of the layers too busy to miss a profile sample.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		w, err := lookupWorkload(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		e2e := endToEnd(w, 5, 1, io.Discard)
		checkMetrics(t, w.name+" end-to-end", e2e, spec.EndToEnd)
		for name, m := range e2e.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		layers := perLayer(w, 5, 1, io.Discard)
		checkMetrics(t, w.name+" per-layer", layers, spec.PerLayer)
		if w.name != "amoeba-day" {
			continue
		}
		for _, name := range []string{
			"sim.events", "trace.rate_calls", "arrival.accept_ratio", "serverless.completions",
			"iaas.completions", "engine.switches", "controller.decisions", "monitor.heartbeats",
			"monitor.meter_samples", "metrics.samples", "obs.events", "core.parallel_eff",
			"setup.surfaces_s", "setup.meters_s",
		} {
			if !(layers.Metrics[name].Value > 0) {
				t.Errorf("amoeba-day: %s = %v, want > 0", name, layers.Metrics[name].Value)
			}
		}
		for _, l := range []string{"sim", "trace", "serverless", "iaas", "metrics", "resources", "obs", "runtime"} {
			if layers.Metrics[l+".cpu_share"].Value == 0 {
				t.Errorf("amoeba-day: layer %s has no CPU samples", l)
			}
		}
		if r := layers.rateVsProfile; r > rateCheckFactor || r < 1/rateCheckFactor {
			t.Errorf("amoeba-day: timed Rate and profiled trace CPU differ by %.2fx", r)
		}
	}
}

// TestReferenceRepeats checks that the reference loop does the same work
// on every call: the host times are scaled by its fastest run, which
// must therefore measure the host and nothing else.
func TestReferenceRepeats(t *testing.T) {
	first := refSimulate()
	if !(first > 0) {
		t.Fatalf("reference p95 = %v, want > 0", first)
	}
	for i := 0; i < 3; i++ {
		if got := refSimulate(); got != first {
			t.Fatalf("reference p95 %v on call %d, %v on the first", got, i+2, first)
		}
	}
}

// TestEveryModuleFolds checks that every amoeba/internal package linked
// into the benchmark is in the fold map and lands on a reported layer
// (or on its caller), so no profile sample is charged to a layer the
// benchmark does not report.
func TestEveryModuleFolds(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skip("go list unavailable:", err)
	}
	reported := map[string]bool{"": true, "setup": true}
	for _, l := range cpuLayers {
		reported[l] = true
	}
	n := 0
	for _, pkg := range strings.Fields(string(out)) {
		mod, ok := strings.CutPrefix(pkg, modulePrefix)
		if !ok {
			continue
		}
		n++
		l, known := layerOf[mod]
		switch {
		case !known:
			t.Errorf("module %s is missing from the fold map", mod)
		case !reported[l]:
			t.Errorf("module %s folds to %q, which is not a reported layer", mod, l)
		}
	}
	if n == 0 {
		t.Error("no amoeba/internal package is linked into the benchmark")
	}
}

// TestFleetShardCountsAgree checks that the 100-service Zipf fleet,
// with background tenants built for the fleet's own 3600-s day, gives
// identical outputs on one shard and on two.
func TestFleetShardCountsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 100-service fleet twice")
	}
	const day = 3600
	sc := core.Scenario{
		Variant:    core.VariantAmoeba,
		Services:   core.SyntheticFleet(100, defaultSeed),
		Background: core.BackgroundTenants(day, defaultSeed),
		Duration:   day,
		Seed:       defaultSeed,
	}
	one := fingerprint(core.RunSharded(sc, 1))
	two := fingerprint(core.RunSharded(sc, 2))
	if one != two {
		t.Errorf("fleet outputs differ: shards 1 gave %s, shards 2 gave %s", one, two)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seed", "x"},
		{"-trace", "2"},
		{"-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no output", args, code, out.String())
		}
	}
}

func TestReportIsLastLineJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out bytes.Buffer
	if code := run([]string{"-workload", "amoeba-day", "-seconds", "0.1"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := rep[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
	if len(rep) != 4 {
		t.Errorf("report has %d keys, want 4", len(rep))
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("median even = %v", m)
	}
}
