// Package repro reproduces "Scalable selective re-execution for EDGE
// architectures" (Desikan, Sethumadhavan, Burger, Keckler — ASPLOS 2004):
// a cycle-level simulator of a TRIPS-like EDGE processor whose load-store
// dependence mis-speculations are repaired either by conventional pipeline
// flushes or by the paper's distributed selective re-execution (DSRE)
// protocol.
//
// The package is a façade over the building blocks in internal/: the EDGE
// ISA and program builder, the architectural emulator (golden model), the
// benchmark kernels, and the simulator with its substrates (tiles, operand
// mesh, caches, LSQ, dependence predictors).
//
// The one-call entry point is Run:
//
//	res, err := repro.Run(repro.Config{Workload: "histogram", Scheme: "dsre"})
//	fmt.Println(res.IPC)
//
// Every Run double-checks the simulated machine against the architectural
// emulator: a result is returned only if the final registers and memory
// match the golden model exactly, so mis-speculation recovery can never
// silently corrupt an experiment.
package repro

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config selects a workload, a speculation scheme and machine parameters.
// Zero values mean defaults (the TRIPS-like machine of the paper's
// configuration table).
type Config struct {
	// Workload is a kernel name from Workloads().
	Workload string
	// Size scales the workload (elements/iterations); zero = kernel default.
	Size int
	// Unroll is the loop unrolling factor (block size); zero = default.
	Unroll int
	// Seed drives workload data; zero = 1.
	Seed uint64

	// Scheme is a name from Schemes(): how loads speculate and how
	// mis-speculation recovers.  Empty means "dsre".
	Scheme string

	// Frames is the number of in-flight blocks (window = Frames × 128).
	Frames int
	// GridWidth and GridHeight size the execution-tile grid.
	GridWidth, GridHeight int
	// HopLatency and LinkBandwidth parameterise the operand mesh.
	HopLatency, LinkBandwidth int

	// CommitTokensFree delivers pure commit-wave tokens without consuming
	// network bandwidth (ablation E6).
	CommitTokensFree bool
	// NoSuppressIdentical disables identical-value wave suppression
	// (ablation E7).
	NoSuppressIdentical bool
	// PerfectBlockPred drives fetch from a perfect next-block trace,
	// isolating memory-speculation effects from control speculation.
	PerfectBlockPred bool
	// BlockPredictor selects the next-block predictor: "twolevel"
	// (default), "last" or "perfect".
	BlockPredictor string
	// Placement selects instruction-to-tile mapping: "roundrobin"
	// (default) or "chain" (dependence-following).
	Placement string
	// StoreSetSize overrides the SSIT size (power of two).
	StoreSetSize int
	// MemLatency overrides the DRAM latency in cycles.
	MemLatency int
	// DTileBanks overrides the number of data-tile ports (0 = default 4;
	// 1 = a single hot LSQ port — ablation E14).
	DTileBanks int
	// LSQCapacity bounds resident load/store queue entries; block mapping
	// stalls when a block's memory ops would not fit (0 = unbounded).
	LSQCapacity int
	// ValuePredict enables stride load-value prediction with DSRE repair
	// of mis-predictions (extension E16).
	ValuePredict bool
	// Trace attaches an execution-event collector; the Result's Trace field
	// can then render timelines and wave reports (see internal/trace) or
	// export a Chrome trace (see internal/telemetry).
	Trace bool
	// SampleEvery enables per-cycle telemetry sampling: every N cycles the
	// machine records a window (IPC, occupancies, wave and miss rates) into
	// the Result's Samples.  Zero disables sampling — the simulator hot
	// path then pays only a nil check.
	SampleEvery int
	// SlowTick disables the simulator's event-driven fast paths and steps
	// every structure every cycle.  Results are byte-identical either way
	// (the fast paths are differentially tested against this flag); it
	// exists for correctness triage and does not enter sweep cache keys.
	// The operand mesh has no dense path, so it ticks the same way under
	// either setting; its oracle is the reference mesh in internal/noc's
	// tests.
	SlowTick bool
}

// Result is the outcome of one verified run.
type Result struct {
	Workload string
	Scheme   string
	// Size, Unroll and Seed are the workload's effective parameters (the
	// kernel defaults when the Config left them zero), so artifacts are
	// self-describing when many sweep points share a workload name.
	Size   int
	Unroll int
	Seed   uint64

	Cycles int64
	Insts  int64 // architecturally committed instructions (golden count)
	IPC    float64
	Blocks int64

	Violations  int64 // load-store ordering violations detected
	Flushes     int64 // pipeline flushes taken (flush recovery)
	Corrections int64 // selective corrections injected (DSRE recovery)
	Reexecs     int64 // instruction re-executions
	Waves       int64 // recovery waves injected

	// Sim exposes the full simulator statistics for detailed analysis.
	Sim sim.Stats
	// Trace holds execution events when Config.Trace was set.
	Trace *trace.Collector
	// Samples holds the telemetry time series when Config.SampleEvery was
	// set, in chronological order.
	Samples []sim.Sample
}

// Report converts the result into its machine-readable run report
// (telemetry.ReportSchema), ready for WriteFile.
func (r *Result) Report() *telemetry.Report {
	return &telemetry.Report{
		Schema:      telemetry.ReportSchema,
		Workload:    r.Workload,
		Scheme:      r.Scheme,
		Size:        r.Size,
		Unroll:      r.Unroll,
		Seed:        r.Seed,
		Cycles:      r.Cycles,
		Insts:       r.Insts,
		IPC:         r.IPC,
		Blocks:      r.Blocks,
		Violations:  r.Violations,
		Flushes:     r.Flushes,
		Corrections: r.Corrections,
		Reexecs:     r.Reexecs,
		Waves:       r.Waves,
		Stats:       r.Sim,
		Samples:     r.Samples,
	}
}

// Schemes returns the recognised scheme names, in the order the evaluation
// reports them.
func Schemes() []string {
	return []string{
		"conservative",     // loads wait for all older stores; never speculates
		"aggressive+flush", // speculate always; flush on violation
		"storeset+flush",   // store-set predictor; flush on violation
		"dsre",             // speculate always; selective re-execution (the paper's protocol)
		"storeset+dsre",    // store-set predictor; selective re-execution
		"oracle",           // perfect dependence oracle (upper bound)
	}
}

// ParseScheme maps a scheme name to its (policy, recovery) pair.
func ParseScheme(name string) (core.IssuePolicy, core.RecoveryScheme, error) {
	switch name {
	case "conservative", "conservative+flush":
		return core.IssueConservative, core.RecoverFlush, nil
	case "conservative+dsre":
		return core.IssueConservative, core.RecoverDSRE, nil
	case "aggressive+flush":
		return core.IssueAggressive, core.RecoverFlush, nil
	case "storeset+flush", "storeset":
		return core.IssueStoreSet, core.RecoverFlush, nil
	case "dsre", "aggressive+dsre", "":
		return core.IssueAggressive, core.RecoverDSRE, nil
	case "storeset+dsre":
		return core.IssueStoreSet, core.RecoverDSRE, nil
	case "oracle", "oracle+dsre":
		return core.IssueOracle, core.RecoverDSRE, nil
	}
	return 0, 0, fmt.Errorf("unknown scheme %q (have %v)", name, Schemes())
}

// CanonicalScheme resolves a scheme name (including aliases and the empty
// default) to the canonical name reported by Schemes().  Two names that
// select the same (policy, recovery) pair canonicalise identically, which
// is what makes scheme names safe inside content-addressed cache keys.
func CanonicalScheme(name string) (string, error) {
	policy, recovery, err := ParseScheme(name)
	if err != nil {
		return "", err
	}
	switch {
	case policy == core.IssueConservative && recovery == core.RecoverFlush:
		return "conservative", nil
	case policy == core.IssueConservative && recovery == core.RecoverDSRE:
		return "conservative+dsre", nil
	case policy == core.IssueAggressive && recovery == core.RecoverFlush:
		return "aggressive+flush", nil
	case policy == core.IssueAggressive && recovery == core.RecoverDSRE:
		return "dsre", nil
	case policy == core.IssueStoreSet && recovery == core.RecoverFlush:
		return "storeset+flush", nil
	case policy == core.IssueStoreSet && recovery == core.RecoverDSRE:
		return "storeset+dsre", nil
	case policy == core.IssueOracle:
		return "oracle", nil
	}
	return "", fmt.Errorf("repro: no canonical name for scheme %q", name)
}

// Workloads returns the registered kernel names.
func Workloads() []string { return workload.Names() }

// WorkloadAnalog describes which SPEC-2000 class a kernel stands in for.
func WorkloadAnalog(name string) string { return workload.Analog(name) }

// DefaultMachine returns the baseline machine configuration (experiment E1).
func DefaultMachine() sim.Config { return sim.DefaultConfig() }

// Run builds the workload, runs the golden-model emulator, simulates the
// configured machine, verifies the architectural results match, and returns
// the measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: cancellation or a deadline stops an
// in-flight simulation at a cycle boundary (see sim.Machine.RunContext).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	scheme, policy, recovery, err := schemeOf(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Workload == "" {
		return nil, fmt.Errorf("repro: no workload selected (have %v)", Workloads())
	}
	w, err := workload.Build(cfg.Workload, workload.Params{Size: cfg.Size, Unroll: cfg.Unroll, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	opts := emu.Options{CollectOracle: policy == core.IssueOracle}
	if cfg.PerfectBlockPred || cfg.BlockPredictor == "perfect" {
		opts.TraceBlocks = 1 << 30
	}
	golden, err := w.RunEmulator(opts)
	if err != nil {
		return nil, err
	}
	return runVerified(ctx, cfg, scheme, policy, recovery, w, golden)
}

// Prepared is a built workload plus its golden-model run, collected with
// both the dependence oracle and the committed block trace so that every
// scheme and block predictor can simulate from it.  A Prepared is
// read-only once built (the emulator and simulator clone all mutable
// state), so one Prepared may back many concurrent RunPrepared calls —
// the sweep engine memoizes them so the schemes of one experiment share a
// single program build and emulator run.
type Prepared struct {
	Workload *workload.Workload
	Golden   *emu.Result
}

// Prepare builds a workload and runs the golden model once, for reuse
// across many RunPrepared calls.  Size, unroll and seed follow Config
// semantics (zero means the kernel default).
func Prepare(name string, size, unroll int, seed uint64) (*Prepared, error) {
	if name == "" {
		return nil, fmt.Errorf("repro: no workload selected (have %v)", Workloads())
	}
	w, err := workload.Build(name, workload.Params{Size: size, Unroll: unroll, Seed: seed})
	if err != nil {
		return nil, err
	}
	golden, err := w.RunEmulator(emu.Options{CollectOracle: true, TraceBlocks: 1 << 30})
	if err != nil {
		return nil, err
	}
	return &Prepared{Workload: w, Golden: golden}, nil
}

// RunPrepared simulates cfg against an already-prepared workload.  The
// prepared workload must have been built from the same kernel and
// parameters as cfg; mismatches are rejected rather than silently
// measuring the wrong point.
func RunPrepared(ctx context.Context, cfg Config, p *Prepared) (*Result, error) {
	scheme, policy, recovery, err := schemeOf(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Workload != p.Workload.Name {
		return nil, fmt.Errorf("repro: prepared workload %q does not match config workload %q", p.Workload.Name, cfg.Workload)
	}
	wp := p.Workload.Params
	if cfg.Size != 0 && cfg.Size != wp.Size {
		return nil, fmt.Errorf("repro: prepared %s size %d does not match config size %d", p.Workload.Name, wp.Size, cfg.Size)
	}
	// An over-large requested unroll is clamped by the kernel builder, so
	// the prepared unroll may legitimately sit below the requested one —
	// only a larger prepared unroll proves a mismatch.
	if cfg.Unroll != 0 && wp.Unroll > cfg.Unroll {
		return nil, fmt.Errorf("repro: prepared %s unroll %d does not match config unroll %d", p.Workload.Name, wp.Unroll, cfg.Unroll)
	}
	if cfg.Seed != 0 && cfg.Seed != wp.Seed {
		return nil, fmt.Errorf("repro: prepared %s seed %d does not match config seed %d", p.Workload.Name, wp.Seed, cfg.Seed)
	}
	return runVerified(ctx, cfg, scheme, policy, recovery, p.Workload, p.Golden)
}

// schemeOf resolves the Config's scheme name to its (policy, recovery).
func schemeOf(cfg Config) (string, core.IssuePolicy, core.RecoveryScheme, error) {
	scheme := cfg.Scheme
	if scheme == "" {
		scheme = "dsre"
	}
	policy, recovery, err := ParseScheme(scheme)
	if err != nil {
		return "", 0, 0, err
	}
	return scheme, policy, recovery, nil
}

// MachineConfig derives the simulator configuration this Config selects:
// the default TRIPS-like machine with the Config's overrides applied.
// Together with sim.Config.Canonical this gives the sweep engine a stable,
// fully-explicit machine description to hash.
func (cfg Config) MachineConfig() (sim.Config, error) {
	policy, recovery, err := ParseScheme(cfg.Scheme)
	if err != nil {
		return sim.Config{}, err
	}
	sc := sim.DefaultConfig()
	sc.Policy = policy
	sc.Recovery = recovery
	if cfg.Frames > 0 {
		sc.Frames = cfg.Frames
	}
	if cfg.GridWidth > 0 {
		sc.GridWidth = cfg.GridWidth
	}
	if cfg.GridHeight > 0 {
		sc.GridHeight = cfg.GridHeight
	}
	if cfg.HopLatency > 0 {
		sc.HopLatency = cfg.HopLatency
	}
	if cfg.LinkBandwidth > 0 {
		sc.LinkBandwidth = cfg.LinkBandwidth
	}
	if cfg.StoreSetSize > 0 {
		sc.StoreSet.SSITSize = cfg.StoreSetSize
	}
	if cfg.MemLatency > 0 {
		sc.Hier.MemLatency = cfg.MemLatency
	}
	if cfg.DTileBanks > 0 {
		sc.DTileBanks = cfg.DTileBanks
	}
	if cfg.LSQCapacity > 0 {
		sc.LSQCapacity = cfg.LSQCapacity
	}
	sc.ValuePredict = cfg.ValuePredict
	sc.CommitTokensFree = cfg.CommitTokensFree
	sc.SuppressIdenticalValues = !cfg.NoSuppressIdentical
	sc.PerfectBlockPred = cfg.PerfectBlockPred
	sc.SlowTick = cfg.SlowTick
	switch cfg.Placement {
	case "", "roundrobin":
		sc.Placement = sim.PlaceRoundRobin
	case "chain":
		sc.Placement = sim.PlaceChain
	default:
		return sim.Config{}, fmt.Errorf("repro: unknown placement %q (roundrobin, chain)", cfg.Placement)
	}
	switch cfg.BlockPredictor {
	case "", "twolevel":
		sc.BlockPred = sim.PredTwoLevel
	case "last":
		sc.BlockPred = sim.PredLastTarget
	case "perfect":
		sc.BlockPred = sim.PredPerfect
		sc.PerfectBlockPred = true
	default:
		return sim.Config{}, fmt.Errorf("repro: unknown block predictor %q (twolevel, last, perfect)", cfg.BlockPredictor)
	}
	return sc, nil
}

// runVerified simulates one configuration against a built workload and its
// golden-model run, verifies the architectural results match, and returns
// the measurements.
func runVerified(ctx context.Context, cfg Config, scheme string, policy core.IssuePolicy, recovery core.RecoveryScheme, w *workload.Workload, golden *emu.Result) (*Result, error) {
	sc, err := cfg.MachineConfig()
	if err != nil {
		return nil, err
	}
	sc.Policy = policy
	sc.Recovery = recovery

	mc, err := sim.New(sc, w.Program, &w.Regs, w.Mem, golden.Oracle, golden.BlockTrace)
	if err != nil {
		return nil, err
	}
	// Cycle accounting + forensics are always on for verified runs: the
	// overhead is a few counter compares per cycle, and every
	// dsre-report/v1 gets a CPI stack and per-load audit for free.
	mc.EnableAccounting()
	var collector *trace.Collector
	if cfg.Trace {
		collector = &trace.Collector{}
		mc.SetTracer(collector)
	}
	var sampler *telemetry.Sampler
	if cfg.SampleEvery > 0 {
		sampler = telemetry.NewSampler(0)
		mc.SetSampler(int64(cfg.SampleEvery), sampler)
	}
	sr, err := mc.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("repro: %s/%s: %w", cfg.Workload, scheme, err)
	}

	// Verify against the golden model: the whole point of a recovery
	// protocol is that speculation never changes architectural results.
	if sr.Blocks != golden.Blocks {
		return nil, fmt.Errorf("repro: %s/%s: committed %d blocks, golden model %d", cfg.Workload, scheme, sr.Blocks, golden.Blocks)
	}
	if sr.Regs != golden.Regs {
		return nil, fmt.Errorf("repro: %s/%s: architectural registers diverged from golden model", cfg.Workload, scheme)
	}
	if !sr.Mem.Equal(golden.Mem) {
		addr, _ := sr.Mem.FirstDiff(golden.Mem)
		return nil, fmt.Errorf("repro: %s/%s: memory diverged from golden model at %#x", cfg.Workload, scheme, addr)
	}
	if w.Check != nil {
		if err := w.Check(&sr.Regs, sr.Mem); err != nil {
			return nil, fmt.Errorf("repro: %s/%s: workload check: %w", cfg.Workload, scheme, err)
		}
	}

	res := &Result{
		Workload:    cfg.Workload,
		Scheme:      scheme,
		Size:        w.Params.Size,
		Unroll:      w.Params.Unroll,
		Seed:        w.Params.Seed,
		Cycles:      sr.Stats.Cycles,
		Insts:       golden.Insts,
		IPC:         float64(golden.Insts) / float64(sr.Stats.Cycles),
		Blocks:      sr.Blocks,
		Violations:  sr.Stats.LSQ.Violations,
		Flushes:     sr.Stats.Flushes,
		Corrections: sr.Stats.DSRECorrections,
		Reexecs:     sr.Stats.Reexecs,
		Waves:       sr.Stats.WaveCount,
		Sim:         sr.Stats,
		Trace:       collector,
	}
	if sampler != nil {
		res.Samples = sampler.Samples()
	}
	return res, nil
}
