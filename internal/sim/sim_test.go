package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// runBoth runs a workload through the emulator and the simulator and
// asserts identical final architectural state, then returns both results.
func runBoth(t *testing.T, w *workload.Workload, cfg Config) (*emu.Result, *Result) {
	t.Helper()
	opts := emu.Options{CollectOracle: cfg.Policy == core.IssueOracle, TraceStores: true}
	if cfg.BlockPred == PredPerfect {
		opts.TraceBlocks = 1 << 30
	}
	er, err := emu.Run(w.Program, &w.Regs, w.Mem, opts)
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, er.Oracle, er.BlockTrace)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	// Validate every drained store against the golden trace: protocol bugs
	// surface at the first wrong store, not as an end-state diff.
	golden := make(map[core.DynRef]emu.StoreRecord, len(er.StoreTrace))
	for _, rec := range er.StoreTrace {
		golden[rec.Ref] = rec
	}
	mc.q.ValidateDrain = func(k core.DynRef, addr uint64, data int64, size int) error {
		rec, ok := golden[k]
		if !ok {
			return fmt.Errorf("drain of %v: no golden store", k)
		}
		if rec.Addr != addr || rec.Data != data || rec.Size != size {
			return fmt.Errorf("drain of %v: addr=%#x data=%d size=%d, golden addr=%#x data=%d size=%d",
				k, addr, data, size, rec.Addr, rec.Data, rec.Size)
		}
		return nil
	}
	sr, err := mc.Run()
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if sr.Blocks != er.Blocks {
		t.Fatalf("committed %d blocks, emulator %d", sr.Blocks, er.Blocks)
	}
	if sr.Regs != er.Regs {
		for i := range sr.Regs {
			if sr.Regs[i] != er.Regs[i] {
				t.Errorf("r%d = %d, emulator %d", i, sr.Regs[i], er.Regs[i])
			}
		}
		t.Fatal("architectural registers diverged")
	}
	if !sr.Mem.Equal(er.Mem) {
		addr, _ := sr.Mem.FirstDiff(er.Mem)
		t.Fatalf("memory diverged at %#x: sim=%d emu=%d",
			addr, sr.Mem.Read(addr, 8), er.Mem.Read(addr, 8))
	}
	if err := w.Check(&sr.Regs, sr.Mem); err != nil {
		t.Fatalf("workload check: %v", err)
	}
	return er, sr
}

// smallParams keeps the correctness matrix fast; matmul is cubic in Size.
func smallParams(name string) workload.Params {
	switch name {
	case "matmul":
		return workload.Params{Size: 12}
	case "treewalk":
		return workload.Params{Size: 128}
	default:
		return workload.Params{Size: 64}
	}
}

// TestSmokeVecsum is the first-light test: a tiny streaming kernel under
// the default configuration.
func TestSmokeVecsum(t *testing.T) {
	w := workload.MustBuild("vecsum", smallParams("vecsum"))
	er, sr := runBoth(t, w, DefaultConfig())
	t.Logf("emu blocks=%d insts=%d; sim cycles=%d", er.Blocks, er.Insts, sr.Stats.Cycles)
	if sr.Stats.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
}

// TestAllKernelsAllSchemes is the core correctness matrix: every kernel ×
// every (policy, recovery) pair must match the emulator exactly.
func TestAllKernelsAllSchemes(t *testing.T) {
	type scheme struct {
		policy   core.IssuePolicy
		recovery core.RecoveryScheme
	}
	schemes := []scheme{
		{core.IssueConservative, core.RecoverFlush},
		{core.IssueAggressive, core.RecoverFlush},
		{core.IssueAggressive, core.RecoverDSRE},
		{core.IssueStoreSet, core.RecoverFlush},
		{core.IssueStoreSet, core.RecoverDSRE},
		{core.IssueOracle, core.RecoverDSRE},
	}
	for _, name := range workload.Names() {
		for _, s := range schemes {
			s := s
			t.Run(name+"/"+s.policy.String()+"+"+s.recovery.String(), func(t *testing.T) {
				w := workload.MustBuild(name, smallParams(name))
				cfg := DefaultConfig()
				cfg.Policy = s.policy
				cfg.Recovery = s.recovery
				runBoth(t, w, cfg)
			})
		}
	}
}
