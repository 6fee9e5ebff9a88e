// Command perfbench is the repository benchmark. It runs one named
// workload of the Amoeba simulator, generated from a seed, and prints
// its metrics as one JSON object on the last line of standard output.
//
// With -trace 0 it reports the end-to-end metrics of untraced runs over a
// batch of scenarios generated from the seed: host time per simulated
// query and per simulated day, scaled by a reference loop timed in the
// same run (reference.go), memory per day, set-up time, and the paper's
// modeled outputs. With -trace 1 it reports per-layer metrics
// from a traced run: counts from an obs.Sink on the scenario bus, timed
// trace.Trace decorators, and CPU and heap profiles folded by module.
//
// Every run checks the simulated outputs: repeated runs of one seed,
// and the traced run against the untraced one, must agree exactly.
//
//	go run . -workload amoeba-day -seed 0xA0EBA -seconds 40 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// rateVsProfile is the traced run's cross-check: timed Rate seconds
	// (timer floor subtracted) over the profile's trace CPU seconds.
	rateVsProfile float64
}

func (r *report) put(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "amoeba-day", "workload: "+strings.Join(names, ", "))
	seedArg := fs.String("seed", strconv.Itoa(defaultSeed), "workload seed, decimal or 0x-prefixed hex")
	secs := fs.Float64("seconds", 40, "host seconds to spend measuring")
	traceArg := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	seed, err := strconv.ParseUint(*seedArg, 0, 64)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: bad -seed:", err)
		return 2
	}
	if *secs <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	var rep report
	if *traceArg == 0 {
		rep = endToEnd(w, seed, *secs, stderr)
	} else {
		rep = perLayer(w, seed, *secs, stderr)
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", k)
			rep.Correct = false
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
