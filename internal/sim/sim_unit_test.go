package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.GridWidth = 0 },
		func(c *Config) { c.Frames = 1 },
		func(c *Config) { c.HopLatency = 0 },
		func(c *Config) { c.LinkBandwidth = 0 },
		func(c *Config) { c.ALULatency = 0 },
		func(c *Config) { c.FetchCycles = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewRequiresOracleTable(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 16})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueOracle
	if _, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil); err == nil {
		t.Error("oracle policy without table accepted")
	}
	cfg = DefaultConfig()
	cfg.BlockPred = PredPerfect
	if _, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil); err == nil {
		t.Error("perfect prediction without trace accepted")
	}
}

// TestBranchMispredictionRecovery uses a two-phase program whose control
// pattern defeats the self-loop heuristic at the phase change; correctness
// must survive the squash-and-refetch.
func TestBranchMispredictionRecovery(t *testing.T) {
	w := workload.MustBuild("matmul", workload.Params{Size: 8})
	cfg := DefaultConfig()
	cfg.BlockPred = PredLastTarget
	_, sr := runBoth(t, w, cfg)
	if sr.Stats.BranchSquashes == 0 {
		t.Error("expected branch mispredictions on nested loops with a last-target predictor")
	}
	if sr.Stats.SquashedBlocks == 0 {
		t.Error("branch squashes reported but no blocks squashed")
	}
}

func TestPerfectPredictionEliminatesBranchSquashes(t *testing.T) {
	w := workload.MustBuild("matmul", workload.Params{Size: 8})
	cfg := DefaultConfig()
	cfg.BlockPred = PredPerfect
	_, sr := runBoth(t, w, cfg)
	if sr.Stats.BranchSquashes != 0 {
		t.Errorf("perfect prediction squashed %d times", sr.Stats.BranchSquashes)
	}
}

func TestTwoLevelBeatsLastTargetOnAlternation(t *testing.T) {
	// spmv alternates inner...inner/rownext periodically: history helps.
	w := workload.MustBuild("spmv", workload.Params{Size: 128})
	er, _ := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
	ipc := func(kind BlockPredKind) float64 {
		cfg := DefaultConfig()
		cfg.BlockPred = kind
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(er.Insts) / float64(r.Stats.Cycles)
	}
	last, two := ipc(PredLastTarget), ipc(PredTwoLevel)
	if two <= last {
		t.Errorf("two-level %.3f not above last-target %.3f on spmv", two, last)
	}
}

func TestPlacementPolicies(t *testing.T) {
	// Both placements must be architecturally correct; chain placement must
	// reduce operand network hops on a chain-heavy kernel.
	w := workload.MustBuild("vecsum", workload.Params{Size: 256})
	cfg := DefaultConfig()
	_, rr := runBoth(t, w, cfg)
	w2 := workload.MustBuild("vecsum", workload.Params{Size: 256})
	cfg.Placement = PlaceChain
	_, ch := runBoth(t, w2, cfg)
	if ch.Stats.Net.Hops >= rr.Stats.Net.Hops {
		t.Errorf("chain placement hops %d not below round-robin %d",
			ch.Stats.Net.Hops, rr.Stats.Net.Hops)
	}
}

func TestChainPlacementRespectsCapacity(t *testing.T) {
	w := workload.MustBuild("stencil", workload.Params{})
	place, err := computePlacement(PlaceChain, w.Program, 16)
	if err != nil {
		t.Fatal(err)
	}
	capPerTile := (isa.MaxInsts + 15) / 16
	for bi, p := range place {
		counts := make(map[int]int)
		for _, tile := range p {
			counts[tile]++
			if tile < 0 || tile >= 16 {
				t.Fatalf("block %d: tile %d out of range", bi, tile)
			}
		}
		for tile, n := range counts {
			if n > capPerTile {
				t.Errorf("block %d tile %d holds %d insts (cap %d)", bi, tile, n, capPerTile)
			}
		}
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	w := workload.MustBuild("cursor", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	cfg.Recovery = core.RecoverDSRE
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := &trace.Collector{}
	mc.SetTracer(col)
	if _, err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	counts := col.Counts()
	if counts[trace.KindExec] == 0 || counts[trace.KindBlockCommit] == 0 {
		t.Errorf("missing basic events: %v", counts)
	}
	if counts[trace.KindCorrection] == 0 || counts[trace.KindReexec] == 0 {
		t.Errorf("cursor under aggressive DSRE must produce waves: %v", counts)
	}
}

// TestTinyGrid exercises a degenerate 1x1 grid (every instruction on one
// tile) — placement, routing and commit must still be correct.
func TestTinyGrid(t *testing.T) {
	w := workload.MustBuild("histogram", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.GridWidth, cfg.GridHeight = 1, 1
	runBoth(t, w, cfg)
}

// TestWideGrid exercises an 8x8 grid.
func TestWideGrid(t *testing.T) {
	w := workload.MustBuild("histogram", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.GridWidth, cfg.GridHeight = 8, 8
	runBoth(t, w, cfg)
}

// TestManyFrames exercises a 64-block (8192-instruction) window.
func TestManyFrames(t *testing.T) {
	w := workload.MustBuild("bank", workload.Params{Size: 256})
	cfg := DefaultConfig()
	cfg.Frames = 64
	runBoth(t, w, cfg)
}

func TestStatsString(t *testing.T) {
	w := workload.MustBuild("stencil", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	_, sr := runBoth(t, w, cfg)
	s := sr.Stats.String()
	for _, want := range []string{"cycles=", "violations=", "net:"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats string missing %q:\n%s", want, s)
		}
	}
}

// TestValuePredictionCorrectness runs every kernel with map-time value
// prediction enabled under both aggressive and conservative issue: wrong
// guesses must always be repaired exactly.
func TestValuePredictionCorrectness(t *testing.T) {
	for _, name := range workload.Names() {
		for _, policy := range []core.IssuePolicy{core.IssueAggressive, core.IssueConservative} {
			w := workload.MustBuild(name, smallParams(name))
			cfg := DefaultConfig()
			cfg.Policy = policy
			cfg.Recovery = core.RecoverDSRE
			cfg.ValuePredict = true
			runBoth(t, w, cfg)
		}
	}
}

// TestValuePredictionHelpsConservativeQueue pins the E16 headline: on the
// in-memory ring buffer, value prediction recovers parallelism a
// conservative machine cannot otherwise reach.
func TestValuePredictionHelpsConservativeQueue(t *testing.T) {
	ipc := func(vp bool) float64 {
		w := workload.MustBuild("queue", workload.Params{Size: 512})
		er, _ := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
		cfg := DefaultConfig()
		cfg.Policy = core.IssueConservative
		cfg.Recovery = core.RecoverDSRE
		cfg.ValuePredict = vp
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(er.Insts) / float64(r.Stats.Cycles)
	}
	off, on := ipc(false), ipc(true)
	if on < 1.2*off {
		t.Errorf("value prediction gain %.3f -> %.3f below 1.2x", off, on)
	}
}

// TestIndirectBranchDispatch runs a bytecode-interpreter-style dispatch
// loop through indirect branches: block 0 dispatches on a state register to
// blocks 1..3, which mutate the state and return — the hardest case for
// next-block prediction and the only consumer of OpBri in the simulator.
func TestIndirectBranchDispatch(t *testing.T) {
	b := program.New("dispatch")

	d := b.NewBlock("dispatch")
	{
		state := d.Read(1) // next handler block id (1..3), or 0 to halt
		n := d.Read(2)     // iterations left
		pz := d.Op(isa.OpTgt, n, d.Const(0))
		tgt := d.Select(pz, state, d.Const(-1)) // halt when done
		d.Write(1, state)
		d.BranchInd(tgt)
	}
	// Handlers cycle 1 -> 2 -> 3 -> 1 and accumulate distinct amounts.
	for h := 1; h <= 3; h++ {
		blk := b.NewBlock(fmt.Sprintf("h%d", h))
		acc := blk.Read(3)
		n := blk.Read(2)
		next := h%3 + 1
		blk.Write(3, blk.Op(isa.OpAdd, acc, blk.Const(int64(h*10))))
		blk.Write(2, blk.Op(isa.OpSub, n, blk.Const(1)))
		blk.Write(1, blk.Const(int64(next)))
		blk.Branch("dispatch")
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var regs [isa.NumRegs]int64
	regs[1], regs[2] = 1, 30 // 10 full cycles of handlers 1,2,3
	m := mem.New()
	golden, err := emu.Run(prog, &regs, m, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Regs[3] != 10*(10+20+30) {
		t.Fatalf("golden accumulator = %d", golden.Regs[3])
	}
	for _, rec := range []core.RecoveryScheme{core.RecoverFlush, core.RecoverDSRE} {
		cfg := DefaultConfig()
		cfg.Recovery = rec
		mc, err := New(cfg, prog, &regs, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := mc.Run()
		if err != nil {
			t.Fatalf("%s: %v", rec, err)
		}
		if sr.Regs != golden.Regs {
			t.Fatalf("%s: registers diverged", rec)
		}
	}
}

func TestSamplerWindowsAndDebugDump(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 128})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetSampleEvery(100)
	res, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	var blocks int64
	for _, s := range res.Samples {
		blocks += s.CommittedBlocks
	}
	if blocks != res.Blocks {
		t.Errorf("windowed commits sum %d, run committed %d", blocks, res.Blocks)
	}
	// Deadlock diagnostics must carry the occupancy picture of the last
	// window so "no commit for N cycles" errors show the collapse.
	dump := mc.debugDump()
	if !strings.Contains(dump, "telemetry last window:") {
		t.Errorf("debugDump missing telemetry window:\n%s", dump)
	}
}

func TestSamplerDetached(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetSampleEvery(100)
	mc.SetSampleEvery(0) // turn it off again
	res, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 0 {
		t.Errorf("sampling turned off still recorded %d windows", len(res.Samples))
	}
	if strings.Contains(mc.debugDump(), "telemetry last window:") {
		t.Error("debugDump shows a window with sampling off")
	}
}
