// Command perfbench is the repository's end-to-end benchmark.  It drives a
// fixed list of simulation jobs through the sweep engine with one worker,
// checks every output, and prints host-normalised throughput, set-up time,
// memory and the simulated headline figures; with --trace 1 it instead
// calls each layer itself, records one span per call and prints per-layer
// metrics.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 150, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload recovery --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and the normalisation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // temporary stores and the Chrome trace

	// tiny shrinks every kernel to a few milliseconds and every measured
	// window to a single pass, so the tests can run each workload.
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{outDir: ".bench_out"}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "recovery", "workload to run: recovery, streaming, wide-window or sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every job's workload inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to keep repeating measured rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", traceFlag)
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
