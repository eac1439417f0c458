// Package experiments regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md): each function returns the
// rendered table plus structured data so the benchmark harness and the
// dsre-bench tool share one implementation.
//
// Every experiment declares its grid as sweep.JobSpecs and folds the
// resulting reports: the sweep engine (internal/sweep) runs the points on
// a bounded worker pool, shares one program build and golden-model run
// across the schemes of each kernel, and — when the engine has a store —
// replays unchanged points from the content-addressed result cache.
//
// The experiment IDs (E1..E16) are indexed in DESIGN.md; EXPERIMENTS.md
// records the measured outcomes next to the paper's claims.
package experiments

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Opts scales the experiments and names the engine that runs them.
type Opts struct {
	// Quick shrinks workload sizes for fast regression runs; the full sizes
	// are used for the reported numbers.
	Quick bool
	// Ctx, when set, bounds every sweep (dsre-bench passes its signal
	// context so SIGINT/SIGTERM drain in-flight jobs); nil means Background.
	Ctx context.Context
	// Engine runs every experiment's grid; share one so successive
	// experiments reuse memoized workload builds.  Nil means a fresh
	// sweep.New(sweep.Options{}) per experiment: default workers, no cache.
	Engine *sweep.Engine
}

// results runs a grid through the sweep engine and returns the reports in
// spec order, panicking on any failed point: an experiment that cannot run
// is a broken build, not a measurement.
func (o Opts) results(specs []sweep.JobSpec) []*telemetry.Report {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	eng := o.Engine
	if eng == nil {
		eng = sweep.New(sweep.Options{})
	}
	sum, err := eng.Run(ctx, specs)
	if err != nil {
		panic(fmt.Sprintf("experiment sweep failed: %v", err))
	}
	reps, err := sum.Reports()
	if err != nil {
		panic(fmt.Sprintf("experiment run failed: %v", err))
	}
	return reps
}

// sizeFor returns the workload size: kernel defaults normally, reduced
// sizes under Quick (matmul's size is a matrix dimension — cubic work).
func (o Opts) sizeFor(kernel string) int {
	if !o.Quick {
		return 0 // kernel defaults
	}
	switch kernel {
	case "matmul":
		return 16
	case "sort":
		return 64
	case "treewalk":
		return 512
	default:
		return 768
	}
}

// spec is the shorthand for one grid point at the Opts-scaled size.
func (o Opts) spec(kernel, scheme string) sweep.JobSpec {
	return sweep.JobSpec{Workload: kernel, Scheme: scheme, Size: o.sizeFor(kernel)}
}

// Kernels returns the benchmark suite in reporting order.
func Kernels() []string { return repro.Workloads() }

// IDs lists every experiment identifier in reporting order, for CLI
// validation and artifact enumeration.
func IDs() []string {
	return []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16",
	}
}

// run executes one configuration sequentially, panicking on error.  The
// experiments themselves go through the sweep engine; this is the
// sequential reference path, kept for tests that pin sweep results to it.
func run(cfg repro.Config) *repro.Result {
	r, err := repro.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiment run failed: %v", err))
	}
	return r
}

// E1ConfigTable renders the machine-configuration table (paper Table 1).
func E1ConfigTable() *stats.Table {
	c := repro.DefaultMachine()
	t := stats.NewTable("E1: baseline machine configuration",
		"parameter", "value")
	t.Row("execution grid", fmt.Sprintf("%dx%d tiles, 1 issue/tile", c.GridWidth, c.GridHeight))
	t.Row("block size", "128 instructions, 32 loads/stores, 32 reads, 32 writes")
	t.Row("in-flight blocks", fmt.Sprintf("%d (window %d instructions)", c.Frames, c.WindowInsts()))
	t.Row("operand network", fmt.Sprintf("2D mesh, %d-cycle hops, %d msgs/link/cycle", c.HopLatency, c.LinkBandwidth))
	t.Row("L1 D-cache", fmt.Sprintf("%dKB %d-way, %d-cycle hit", c.Hier.L1D.SizeBytes>>10, c.Hier.L1D.Assoc, c.Hier.L1D.HitLatency))
	t.Row("L1 I-cache", fmt.Sprintf("%dKB %d-way, %d-cycle hit", c.Hier.L1I.SizeBytes>>10, c.Hier.L1I.Assoc, c.Hier.L1I.HitLatency))
	t.Row("L2", fmt.Sprintf("%dMB %d-way, %d-cycle hit", c.Hier.L2.SizeBytes>>20, c.Hier.L2.Assoc, c.Hier.L2.HitLatency))
	t.Row("memory", fmt.Sprintf("%d cycles, %d MSHRs", c.Hier.MemLatency, c.Hier.MSHRs))
	t.Row("store-set predictor", fmt.Sprintf("%d-entry SSIT, cyclic clear every %d events", c.StoreSet.SSITSize, c.StoreSet.ClearInterval))
	t.Row("block fetch", fmt.Sprintf("%d cycles + I-cache", c.FetchCycles))
	t.Row("ALU latencies", fmt.Sprintf("int %d, mul %d, div %d", c.ALULatency, c.MulLatency, c.DivLatency))
	return t
}

// ConflictKernels are the workloads with in-window store→load dependences,
// the regime the paper's SPEC-heavy suite emphasised.
var ConflictKernels = map[string]bool{
	"histogram": true, "bank": true, "hashmap": true, "stencil": true, "cursor": true,
}

// SpeedupSummary carries the headline numbers of the main figure.
type SpeedupSummary struct {
	// DSREOverStoreSet is the geometric-mean speedup of aggressive+DSRE
	// over storeset+flush (paper claim: +17%).
	DSREOverStoreSet float64
	// DSREOverStoreSetConflict is the same geomean restricted to the
	// conflict kernels.
	DSREOverStoreSetConflict float64
	// DSREOfOracle is the geometric-mean fraction of oracle performance
	// reached by DSRE (paper claim: 82%).
	DSREOfOracle float64
	// PerWorkloadIPC[scheme][workload] = IPC.
	PerWorkloadIPC map[string]map[string]float64
}

// E2E3Speedup produces the main per-benchmark speedup figure (E2) and the
// oracle-fraction figure (E3): IPC for every scheme, normalised speedups
// over the conservative baseline, and the two headline geomeans.
func E2E3Speedup(o Opts) (*stats.Table, *stats.Table, SpeedupSummary) {
	schemes := repro.Schemes()
	var specs []sweep.JobSpec
	for _, k := range Kernels() {
		for _, s := range schemes {
			specs = append(specs, o.spec(k, s))
		}
	}
	reps := o.results(specs)

	ipc := make(map[string]map[string]float64, len(schemes))
	for _, s := range schemes {
		ipc[s] = make(map[string]float64)
	}
	i := 0
	for _, k := range Kernels() {
		for _, s := range schemes {
			ipc[s][k] = reps[i].IPC
			i++
		}
	}

	t := stats.NewTable("E2: IPC by scheme (speedup over conservative in parens)",
		append([]string{"workload"}, schemes...)...)
	for _, k := range Kernels() {
		row := make([]any, 0, 1+len(schemes))
		row = append(row, k)
		base := ipc["conservative"][k]
		for _, s := range schemes {
			row = append(row, fmt.Sprintf("%.3f (%.2fx)", ipc[s][k], stats.Ratio(ipc[s][k], base)))
		}
		t.Row(row...)
	}

	orc := stats.NewTable("E3: fraction of oracle performance",
		"workload", "storeset+flush", "dsre", "storeset+dsre")
	var vsSS, vsSSConflict, ofOracle []float64
	for _, k := range Kernels() {
		o := ipc["oracle"][k]
		orc.Row(k,
			stats.Ratio(ipc["storeset+flush"][k], o),
			stats.Ratio(ipc["dsre"][k], o),
			stats.Ratio(ipc["storeset+dsre"][k], o))
		vsSS = append(vsSS, stats.Ratio(ipc["dsre"][k], ipc["storeset+flush"][k]))
		if ConflictKernels[k] {
			vsSSConflict = append(vsSSConflict, stats.Ratio(ipc["dsre"][k], ipc["storeset+flush"][k]))
		}
		ofOracle = append(ofOracle, stats.Ratio(ipc["dsre"][k], o))
	}
	sum := SpeedupSummary{
		DSREOverStoreSet:         stats.GeoMean(vsSS),
		DSREOverStoreSetConflict: stats.GeoMean(vsSSConflict),
		DSREOfOracle:             stats.GeoMean(ofOracle),
		PerWorkloadIPC:           ipc,
	}
	orc.Row("geomean", "", sum.DSREOfOracle, "")
	return t, orc, sum
}

// E4WindowScaling produces IPC vs in-flight block count for flush vs DSRE
// recovery — the "scales to windows of thousands of instructions" figure.
func E4WindowScaling(o Opts) *stats.Table {
	frames := []int{2, 4, 8, 16, 32}
	kernels := []string{"histogram", "stencil", "bank"}
	schemes := []string{"storeset+flush", "dsre"}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, s := range schemes {
			for _, f := range frames {
				sp := o.spec(k, s)
				sp.Frames = f
				specs = append(specs, sp)
			}
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E4: IPC vs window size (frames × 128 insts)",
		"workload", "scheme", "2", "4", "8", "16", "32")
	i := 0
	for _, k := range kernels {
		for _, s := range schemes {
			row := []any{k, s}
			for range frames {
				row = append(row, reps[i].IPC)
				i++
			}
			t.Row(row...)
		}
	}
	return t
}

// E5Misspec produces the mis-speculation statistics table: violation rates
// and the work each recovery scheme throws away or re-does.
func E5Misspec(o Opts) *stats.Table {
	schemes := []string{"aggressive+flush", "dsre"}
	var specs []sweep.JobSpec
	for _, k := range Kernels() {
		for _, s := range schemes {
			specs = append(specs, o.spec(k, s))
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E5: mis-speculation behaviour (aggressive issue)",
		"workload", "recovery", "violations/1k insts", "flushes", "squashed execs", "corrections", "re-execs", "re-exec/inst %")
	i := 0
	for _, k := range Kernels() {
		for _, s := range schemes {
			r := reps[i]
			i++
			t.Row(k, s,
				1000*float64(r.Violations)/float64(r.Insts),
				r.Flushes, r.Stats.SquashedExecs, r.Corrections, r.Reexecs,
				100*float64(r.Reexecs)/float64(r.Insts))
		}
	}
	return t
}

// E6CommitWave measures the cost of the commit wave sharing the operand
// network: IPC with commit tokens charged vs free.
func E6CommitWave(o Opts) *stats.Table {
	var specs []sweep.JobSpec
	for _, k := range Kernels() {
		specs = append(specs, o.spec(k, "dsre"))
		free := o.spec(k, "dsre")
		free.CommitTokensFree = true
		specs = append(specs, free)
	}
	reps := o.results(specs)

	t := stats.NewTable("E6: commit-wave network cost (DSRE)",
		"workload", "IPC charged", "IPC free", "overhead %")
	for i, k := range Kernels() {
		a, b := reps[2*i], reps[2*i+1]
		t.Row(k, a.IPC, b.IPC, 100*(b.IPC-a.IPC)/a.IPC)
	}
	return t
}

// E7Suppression measures identical-value wave suppression: wave volume and
// IPC with the optimisation on vs off.
func E7Suppression(o Opts) *stats.Table {
	kernels := []string{"stencil", "histogram", "bank", "hashmap", "cursor"}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		specs = append(specs, o.spec(k, "dsre"))
		off := o.spec(k, "dsre")
		off.NoSuppressIdentical = true
		specs = append(specs, off)
	}
	reps := o.results(specs)

	t := stats.NewTable("E7: identical-value suppression (DSRE)",
		"workload", "IPC on", "re-execs on", "IPC off", "re-execs off", "silent stores absorbed")
	for i, k := range kernels {
		a, b := reps[2*i], reps[2*i+1]
		t.Row(k, a.IPC, a.Reexecs, b.IPC, b.Reexecs, a.Stats.LSQ.SilentStoreHits)
	}
	return t
}

// E8WaveSizes characterises recovery waves: instructions re-executed per
// injected wave.
func E8WaveSizes(o Opts) *stats.Table {
	var specs []sweep.JobSpec
	for _, k := range Kernels() {
		specs = append(specs, o.spec(k, "dsre"))
	}
	reps := o.results(specs)

	t := stats.NewTable("E8: wave sizes (instructions re-executed per violation wave)",
		"workload", "waves", "mean", "p50", "p90", "max")
	for i, k := range Kernels() {
		h := reps[i].Stats.WaveSizeHist
		if h.N == 0 {
			t.Row(k, 0, "-", "-", "-", "-")
			continue
		}
		t.Row(k, h.N, h.Mean(), h.Percentile(50), h.Percentile(90), h.Max)
	}
	return t
}

// E9HopLatency measures sensitivity to operand-network hop latency.
func E9HopLatency(o Opts) *stats.Table {
	kernels := []string{"histogram", "vecsum", "treewalk"}
	schemes := []string{"storeset+flush", "dsre"}
	hops := []int{1, 2, 4}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, s := range schemes {
			for _, hop := range hops {
				sp := o.spec(k, s)
				sp.HopLatency = hop
				specs = append(specs, sp)
			}
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E9: IPC vs mesh hop latency",
		"workload", "scheme", "hop=1", "hop=2", "hop=4")
	i := 0
	for _, k := range kernels {
		for _, s := range schemes {
			row := []any{k, s}
			for range hops {
				row = append(row, reps[i].IPC)
				i++
			}
			t.Row(row...)
		}
	}
	return t
}

// E10StoreSetSize measures store-set capacity sensitivity.
func E10StoreSetSize(o Opts) *stats.Table {
	kernels := []string{"histogram", "hashmap", "stencil"}
	sizes := []int{256, 1024, 4096, 16384}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, n := range sizes {
			sp := o.spec(k, "storeset+dsre")
			sp.StoreSetSize = n
			specs = append(specs, sp)
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E10: storeset+dsre IPC vs SSIT entries",
		"workload", "256", "1024", "4096", "16384")
	i := 0
	for _, k := range kernels {
		row := []any{k}
		for range sizes {
			row = append(row, reps[i].IPC)
			i++
		}
		t.Row(row...)
	}
	return t
}

// E11BlockPredictors compares next-block predictors: the minimal
// last-target BTB, the two-level (history) exit predictor, and a perfect
// trace — separating control-speculation losses from memory-speculation
// effects.
func E11BlockPredictors(o Opts) *stats.Table {
	kernels := []string{"treewalk", "spmv", "sort", "matmul", "histogram"}
	preds := []string{"last", "twolevel", "perfect"}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, p := range preds {
			sp := o.spec(k, "dsre")
			sp.BlockPredictor = p
			specs = append(specs, sp)
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E11: IPC by next-block predictor (DSRE)",
		"workload", "last-target", "two-level", "perfect", "squashed blocks (two-level)")
	for i, k := range kernels {
		last, two, perf := reps[3*i], reps[3*i+1], reps[3*i+2]
		t.Row(k, last.IPC, two.IPC, perf.IPC, two.Stats.SquashedBlocks)
	}
	return t
}

// E12WorkBreakdown reports the speculative-work economy of each recovery
// scheme: useful committed executions vs work thrown away by squashes vs
// work re-done by waves — the energy-style argument for selective
// re-execution.
func E12WorkBreakdown(o Opts) *stats.Table {
	schemes := []string{"aggressive+flush", "dsre"}
	var specs []sweep.JobSpec
	for _, k := range Kernels() {
		for _, s := range schemes {
			specs = append(specs, o.spec(k, s))
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E12: speculative work breakdown (aggressive issue)",
		"workload", "recovery", "useful execs", "squashed execs", "re-execs", "total execs", "overhead %")
	i := 0
	for _, k := range Kernels() {
		for _, s := range schemes {
			r := reps[i]
			i++
			total := r.Stats.Executed
			useful := r.Stats.CommittedExecs
			over := 100 * float64(total-useful) / float64(total)
			t.Row(k, s, useful, r.Stats.SquashedExecs, r.Reexecs, total, over)
		}
	}
	return t
}

// E13Placement compares instruction-to-tile placement policies: operand
// hops saved by chain placement vs issue-balance lost.
func E13Placement(o Opts) *stats.Table {
	kernels := []string{"vecsum", "histogram", "listsum", "matmul", "queue"}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		specs = append(specs, o.spec(k, "dsre"))
		ch := o.spec(k, "dsre")
		ch.Placement = "chain"
		specs = append(specs, ch)
	}
	reps := o.results(specs)

	t := stats.NewTable("E13: instruction placement (DSRE)",
		"workload", "IPC round-robin", "IPC chain", "hops RR", "hops chain")
	for i, k := range kernels {
		rr, ch := reps[2*i], reps[2*i+1]
		t.Row(k, rr.IPC, ch.IPC, rr.Stats.Net.Hops, ch.Stats.Net.Hops)
	}
	return t
}

// E14DTileBanks measures the effect of distributing the LSQ's network
// ports across the D-tile column vs funnelling all memory traffic into a
// single port.
func E14DTileBanks(o Opts) *stats.Table {
	kernels := []string{"histogram", "vecsum", "queue", "matmul"}
	banks := []int{1, 2, 4}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, b := range banks {
			sp := o.spec(k, "dsre")
			sp.DTileBanks = b
			specs = append(specs, sp)
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E14: D-tile memory ports (DSRE)",
		"workload", "1 bank", "2 banks", "4 banks", "queue-wait 1", "queue-wait 4")
	i := 0
	for _, k := range kernels {
		var ipcs []any
		var qw1, qw4 int64
		ipcs = append(ipcs, k)
		for _, b := range banks {
			r := reps[i]
			i++
			ipcs = append(ipcs, r.IPC)
			if b == 1 {
				qw1 = r.Stats.Net.QueueWait
			}
			if b == 4 {
				qw4 = r.Stats.Net.QueueWait
			}
		}
		ipcs = append(ipcs, qw1, qw4)
		t.Row(ipcs...)
	}
	return t
}

// E15LSQCapacity measures sensitivity to load/store queue size: an
// undersized LSQ throttles the effective window for memory-heavy code (the
// TRIPS LSQ-capacity problem that motivated the authors' later late-binding
// LSQ work).
func E15LSQCapacity(o Opts) *stats.Table {
	kernels := []string{"histogram", "bank", "stencil", "queue"}
	caps := []int{32, 64, 128, 0}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, cap := range caps {
			sp := o.spec(k, "dsre")
			sp.LSQCapacity = cap
			specs = append(specs, sp)
		}
	}
	reps := o.results(specs)

	t := stats.NewTable("E15: IPC vs LSQ capacity (DSRE; window has 256 LSID slots)",
		"workload", "cap 32", "cap 64", "cap 128", "unbounded", "stall cycles @32")
	i := 0
	for _, k := range kernels {
		row := []any{k}
		var stall32 int64
		for _, cap := range caps {
			r := reps[i]
			i++
			row = append(row, r.IPC)
			if cap == 32 {
				stall32 = r.Stats.FetchStallLSQ
			}
		}
		row = append(row, stall32)
		t.Row(row...)
	}
	return t
}

// E16ValuePrediction measures DSRE's second application: stride load-value
// prediction at block map time, with mis-predictions repaired by DSRE waves
// (flushing on every wrong value guess would be absurd — cheap selective
// recovery is what makes value speculation viable at all, the
// generalisation the paper closes with).  On this machine aggressive
// dependence speculation already hides most load latency, so the win shows
// on a machine that does NOT speculate on memory ordering: value prediction
// lets even the conservative policy run ahead.
func E16ValuePrediction(o Opts) *stats.Table {
	kernels := []string{"cursor", "queue", "vecsum", "histogram", "treewalk"}
	var specs []sweep.JobSpec
	for _, k := range kernels {
		d := o.spec(k, "dsre")
		dv := o.spec(k, "dsre")
		dv.ValuePredict = true
		c := o.spec(k, "conservative+dsre")
		cv := o.spec(k, "conservative+dsre")
		cv.ValuePredict = true
		specs = append(specs, d, dv, c, cv)
	}
	reps := o.results(specs)

	t := stats.NewTable("E16: map-time load-value prediction (repair via DSRE waves)",
		"workload", "dsre", "dsre+vp", "conservative", "conservative+vp", "cons gain", "VP hits", "VP corrections")
	for i, k := range kernels {
		d, dv, c, cv := reps[4*i], reps[4*i+1], reps[4*i+2], reps[4*i+3]
		t.Row(k, d.IPC, dv.IPC, c.IPC, cv.IPC,
			fmt.Sprintf("%.2fx", cv.IPC/c.IPC), cv.Stats.VPHits, cv.Stats.VPCorrections)
	}
	return t
}
