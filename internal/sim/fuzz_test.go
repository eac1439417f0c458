package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// genProgram builds a random—but structurally valid—EDGE program: a ring of
// loop blocks full of random arithmetic, selects, predicated stores and
// memory traffic over a tiny address pool (maximum aliasing), driven by a
// counted loop so it always terminates.
func genProgram(r *rand.Rand) (*isa.Program, *[isa.NumRegs]int64, *mem.Memory) {
	const (
		memBase  = 0x10000
		memSlots = 16 // 16 8-byte cells: dense aliasing
		rCounter = 1
	)
	nBody := 1 + r.Intn(3)

	b := program.New("fuzz")
	labels := make([]string, nBody)
	for i := range labels {
		labels[i] = string(rune('a' + i))
	}
	// Declare all blocks first so branches can target any of them.
	blocks := make([]*program.BlockBuilder, nBody)
	for i, l := range labels {
		blocks[i] = b.NewBlock(l)
	}

	for i, blk := range blocks {
		// Value pool seeded from register reads and constants.
		pool := []program.Val{
			blk.Read(2), blk.Read(3), blk.Read(4),
			blk.Const(r.Int63n(1000) - 500),
		}
		pick := func() program.Val { return pool[r.Intn(len(pool))] }
		addr := func(v program.Val) program.Val {
			masked := blk.Op(isa.OpAnd, v, blk.Const(int64(memSlots-1)*8))
			return blk.Op(isa.OpAdd, masked, blk.Const(memBase))
		}

		nOps := 4 + r.Intn(10)
		for j := 0; j < nOps; j++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3: // arithmetic
				ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpXor, isa.OpAnd, isa.OpOr, isa.OpTlt, isa.OpTeq, isa.OpShr, isa.OpDiv}
				pool = append(pool, blk.Op(ops[r.Intn(len(ops))], pick(), pick()))
			case 4, 5: // load
				pool = append(pool, blk.Load(addr(pick()), 0))
			case 6, 7: // store
				blk.Store(addr(pick()), 0, pick())
			case 8: // select
				pool = append(pool, blk.Select(blk.Op(isa.OpTlt, pick(), pick()), pick(), pick()))
			case 9: // predicated store
				blk.StoreIf(blk.Op(isa.OpTne, pick(), pick()), r.Intn(2) == 0, addr(pick()), 0, pick())
			}
		}

		// Fold every produced value into an accumulator so no instruction
		// is left without a consumer (the validator rejects dead values).
		acc := pool[0]
		for _, v := range pool[1:] {
			acc = blk.Op(isa.OpXor, acc, v)
		}
		blk.Write(5, acc)

		// Loop plumbing: decrement the counter, write back a few registers,
		// branch to a random body block or halt.
		c := blk.Read(rCounter)
		c2 := blk.Op(isa.OpSub, c, blk.Const(1))
		blk.Write(rCounter, c2)
		for _, reg := range []uint8{2, 3, 4}[:1+r.Intn(3)] {
			blk.Write(reg, pick())
		}
		next := labels[r.Intn(nBody)]
		more := blk.Op(isa.OpTgt, c2, blk.Const(0))
		blk.BranchIf(more, next, program.HaltLabel)
		_ = i
	}

	prog, err := b.Build()
	if err != nil {
		panic("fuzz generator produced invalid program: " + err.Error())
	}

	regs := &[isa.NumRegs]int64{}
	regs[rCounter] = 20 + r.Int63n(40)
	m := mem.New()
	for i := 0; i < memSlots; i++ {
		m.Write(memBase+uint64(8*i), r.Int63n(1000), 8)
	}
	for reg := 2; reg <= 4; reg++ {
		regs[reg] = r.Int63n(1 << 16)
	}
	return prog, regs, m
}

// TestFuzzProgramsAllSchemes property-checks the central invariant on
// randomized programs: whatever the program, policy and recovery scheme,
// the simulated machine's final architectural state equals the golden
// model's.
func TestFuzzProgramsAllSchemes(t *testing.T) {
	schemes := []struct {
		policy   core.IssuePolicy
		recovery core.RecoveryScheme
	}{
		{core.IssueAggressive, core.RecoverDSRE},
		{core.IssueAggressive, core.RecoverFlush},
		{core.IssueStoreSet, core.RecoverDSRE},
		{core.IssueConservative, core.RecoverFlush},
		{core.IssueOracle, core.RecoverDSRE},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog, regs, m := genProgram(r)
		golden, err := emu.Run(prog, regs, m, emu.Options{CollectOracle: true})
		if err != nil {
			t.Logf("seed %d: emulator rejected program: %v", seed, err)
			return false
		}
		for _, s := range schemes {
			cfg := DefaultConfig()
			cfg.Policy = s.policy
			cfg.Recovery = s.recovery
			cfg.Frames = 4 + r.Intn(8)
			cfg.ValuePredict = r.Intn(2) == 0
			cfg.DeadlockCycles = 100000
			mc, err := New(cfg, prog, regs, m, golden.Oracle, nil)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			sr, err := mc.Run()
			if err != nil {
				t.Logf("seed %d %s+%s: %v", seed, s.policy, s.recovery, err)
				return false
			}
			if sr.Regs != golden.Regs || !sr.Mem.Equal(golden.Mem) {
				t.Logf("seed %d %s+%s: architectural divergence", seed, s.policy, s.recovery)
				return false
			}
			// Differential arm: the dense reference tick must reproduce the
			// event-driven run bit for bit, on every random program.
			smc, err := newTicked(cfg, prog, regs, m, golden.Oracle, true)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			ssr, err := smc.Run()
			if err != nil {
				t.Logf("seed %d %s+%s slow-tick: %v", seed, s.policy, s.recovery, err)
				return false
			}
			if ssr.Regs != sr.Regs || !ssr.Mem.Equal(sr.Mem) || !reflect.DeepEqual(ssr.Stats, sr.Stats) {
				t.Logf("seed %d %s+%s: fast/slow tick divergence", seed, s.policy, s.recovery)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
