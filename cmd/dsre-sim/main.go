// dsre-sim runs one workload on the simulated EDGE machine and prints the
// run's statistics.  Every run is verified against the architectural
// emulator before results are reported.
//
// Usage:
//
//	dsre-sim -workload histogram -scheme dsre
//	dsre-sim -workload bank -scheme storeset+flush -frames 16 -size 8192
//	dsre-sim -workload bank -json out.json -trace-out trace.json \
//	         -samples-csv samples.csv -sample-every 100
//	dsre-sim -list
//
// -json writes a dsre-report/v1 run report, -trace-out a Chrome
// trace-event (chrome://tracing) JSON, and -samples-csv the telemetry
// time series recorded every -sample-every cycles (see README
// "Observability").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/telemetry"
)

func main() {
	var cfg repro.Config
	list := flag.Bool("list", false, "list workloads and schemes, then exit")
	all := flag.Bool("all-schemes", false, "run every scheme on the workload")
	flag.StringVar(&cfg.Workload, "workload", "", "kernel to run (see -list)")
	flag.StringVar(&cfg.Scheme, "scheme", "dsre", "speculation scheme (see -list)")
	flag.IntVar(&cfg.Size, "size", 0, "workload size (0 = default)")
	flag.IntVar(&cfg.Unroll, "unroll", 0, "iterations per block (0 = default)")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	flag.IntVar(&cfg.Frames, "frames", 0, "in-flight blocks (0 = default 8)")
	flag.IntVar(&cfg.HopLatency, "hop", 0, "mesh hop latency (0 = default 1)")
	flag.IntVar(&cfg.MemLatency, "memlat", 0, "DRAM latency (0 = default 100)")
	flag.BoolVar(&cfg.CommitTokensFree, "free-commit", false, "commit tokens bypass the network")
	flag.BoolVar(&cfg.NoSuppressIdentical, "no-suppress", false, "disable identical-value wave suppression")
	flag.StringVar(&cfg.BlockPredictor, "bpred", "", "next-block predictor: twolevel, last, perfect")
	flag.StringVar(&cfg.Placement, "placement", "", "instruction placement: roundrobin, chain")
	flag.IntVar(&cfg.DTileBanks, "dbanks", 0, "D-tile memory ports (0 = default)")
	flag.IntVar(&cfg.LSQCapacity, "lsqcap", 0, "LSQ entry capacity (0 = unbounded)")
	flag.BoolVar(&cfg.ValuePredict, "vp", false, "stride load-value prediction (repaired by DSRE waves)")
	timeline := flag.Bool("timeline", false, "render an execution timeline and wave report")
	jsonOut := flag.String("json", "", "write the machine-readable run report to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (chrome://tracing) JSON to this file")
	samplesCSV := flag.String("samples-csv", "", "write the telemetry time series as CSV to this file")
	flag.IntVar(&cfg.SampleEvery, "sample-every", 0, "record a telemetry sample every N cycles (0 = off)")
	flag.Parse()
	cfg.Seed = *seed
	if (*traceOut != "" || *samplesCSV != "") && cfg.SampleEvery == 0 {
		// Trace and CSV exports want the counter time series too.
		cfg.SampleEvery = 1000
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range repro.Workloads() {
			fmt.Printf("  %-10s %s\n", w, repro.WorkloadAnalog(w))
		}
		fmt.Printf("schemes: %s\n", strings.Join(repro.Schemes(), ", "))
		return
	}
	if cfg.Workload == "" {
		fmt.Fprintln(os.Stderr, "dsre-sim: -workload required (try -list)")
		os.Exit(2)
	}

	schemes := []string{cfg.Scheme}
	if *all {
		schemes = repro.Schemes()
	}
	cfg.Trace = *timeline || *traceOut != ""
	for _, s := range schemes {
		cfg.Scheme = s
		simStart := time.Now()
		res, err := repro.Run(cfg)
		simWall := time.Since(simStart)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsre-sim: %v\n", err)
			os.Exit(1)
		}
		report(res)
		if simWall > 0 {
			fmt.Printf("  host: %v wall, %.1f Mcycles/s\n",
				simWall.Round(time.Millisecond), float64(res.Cycles)/1e6/simWall.Seconds())
		}
		if len(res.Samples) > 0 {
			fmt.Printf("  telemetry: %d sample windows (every %d cycles)\n",
				len(res.Samples), cfg.SampleEvery)
		}
		if res.Trace != nil && *timeline {
			fmt.Print(res.Trace.Timeline(72))
			fmt.Print(res.Trace.WaveReport(5))
		}
		if *jsonOut != "" {
			path := schemePath(*jsonOut, s, *all)
			rep := res.Report()
			rep.StampWall(simWall)
			if err := rep.WriteFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "dsre-sim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote run report to %s\n", path)
		}
		if *traceOut != "" {
			path := schemePath(*traceOut, s, *all)
			if err := writeTrace(path, res); err != nil {
				fmt.Fprintf(os.Stderr, "dsre-sim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote Chrome trace (%d events, %d spans) to %s — open in chrome://tracing\n",
				len(res.Trace.Events), len(res.Trace.Spans), path)
		}
		if *samplesCSV != "" {
			path := schemePath(*samplesCSV, s, *all)
			if err := writeSamplesCSV(path, res); err != nil {
				fmt.Fprintf(os.Stderr, "dsre-sim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %d sample windows to %s\n", len(res.Samples), path)
		}
	}
}

// schemePath inserts the scheme name before the extension when -all-schemes
// would otherwise make every scheme overwrite one output file.
func schemePath(path, scheme string, all bool) string {
	if !all {
		return path
	}
	ext := filepath.Ext(path)
	safe := strings.ReplaceAll(scheme, "+", "-")
	return strings.TrimSuffix(path, ext) + "." + safe + ext
}

func writeTrace(path string, res *repro.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, res.Trace, res.Samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSamplesCSV(path string, res *repro.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteCSV(f, res.Samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(r *repro.Result) {
	fmt.Printf("== %s / %s ==\n", r.Workload, r.Scheme)
	fmt.Printf("  IPC %.3f  (%d instructions over %d cycles, %d blocks)\n",
		r.IPC, r.Insts, r.Cycles, r.Blocks)
	fmt.Printf("  violations %d  flushes %d  corrections %d  waves %d  re-execs %d\n",
		r.Violations, r.Flushes, r.Corrections, r.Waves, r.Reexecs)
	fmt.Printf("  verified against the architectural emulator: OK\n")
	fmt.Printf("%s\n", indent(r.Sim.String(), "  "))
	if loads := r.Sim.Forensics.Loads; len(loads) > 0 {
		if len(loads) > 3 {
			loads = loads[:3]
		}
		fmt.Printf("  hottest violating loads (see dsre-explain for the full audit):\n")
		for _, p := range loads {
			fmt.Printf("    %-10s repairs %-5d reexecs %-5d wasted %d\n",
				p.LoadPC, p.Events, p.Reexecs, p.Wasted)
		}
	}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
