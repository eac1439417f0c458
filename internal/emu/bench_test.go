package emu_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/workload"
)

// BenchmarkEmulation measures golden-model throughput in simulated
// instructions per host second.  "loop" is a memory-free register loop
// with no artifacts; "stencil-oracle" runs a store→load conflict kernel
// with the oracle and the block trace on, which is what workload
// preparation asks of the emulator.
func BenchmarkEmulation(b *testing.B) {
	b.Run("loop", func(b *testing.B) {
		bld := program.New("bench")
		blk := bld.NewBlock("loop")
		i := blk.Read(1)
		acc := blk.Read(2)
		for k := 0; k < 16; k++ {
			acc = blk.Op(isa.OpAdd, acc, blk.Const(int64(k)))
		}
		i2 := blk.Op(isa.OpSub, i, blk.Const(1))
		blk.Write(1, i2)
		blk.Write(2, acc)
		more := blk.Op(isa.OpTgt, i2, blk.Const(0))
		blk.BranchIf(more, "loop", "@halt")
		p, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		var regs [isa.NumRegs]int64
		regs[1] = 1000
		benchRun(b, p, &regs, mem.New(), emu.Options{})
	})
	b.Run("stencil-oracle", func(b *testing.B) {
		w, err := workload.Build("stencil", workload.Params{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchRun(b, w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: true, TraceBlocks: 1 << 30})
	})
}

func benchRun(b *testing.B, p *isa.Program, regs *[isa.NumRegs]int64, m *mem.Memory, opt emu.Options) {
	b.ReportAllocs()
	b.ResetTimer()
	var insts int64
	for n := 0; n < b.N; n++ {
		res, err := emu.Run(p, regs, m, opt)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Insts
	}
	b.ReportMetric(float64(insts), "insts/run")
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
