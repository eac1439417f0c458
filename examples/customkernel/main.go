// Custom kernel: build your own EDGE program with the block-builder API,
// run it through the golden-model emulator and the cycle simulator, and
// watch DSRE repair the mis-speculations it provokes.
//
// The kernel is a deliberately nasty pointer-through-memory loop: a cursor
// lives *in memory* and every iteration loads it, advances it, and stores
// it back — so every load truly depends on the previous iteration's store.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
)

const (
	cursorAddr = 0x1000   // the in-memory cursor
	arrayBase  = 0x100000 // data the cursor walks over
	resultAddr = 0x2000
	elems      = 512
)

func buildProgram() *isa.Program {
	b := program.New("cursor-walk")

	loop := b.NewBlock("loop")
	sum := loop.Read(2)
	curp := loop.Const(cursorAddr)
	cursor := loop.Load(curp, 0)     // load the in-memory cursor
	v := loop.Load(cursor, 0)        // load the element it points at
	sum = loop.Op(isa.OpAdd, sum, v) // accumulate
	next := loop.Op(isa.OpAdd, cursor, loop.Const(8))
	loop.Store(curp, 0, next) // store the advanced cursor
	loop.Write(2, sum)
	end := loop.Const(arrayBase + 8*elems)
	more := loop.Op(isa.OpTltu, next, end)
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(2)
	done.Store(done.Const(resultAddr), 0, res)
	done.Halt()

	return b.MustBuild()
}

func main() {
	prog := buildProgram()
	fmt.Println(prog)

	// Initial state: the cursor points at the array; the array holds 1..N.
	m := mem.New()
	m.Write(cursorAddr, arrayBase, 8)
	var want int64
	for i := 0; i < elems; i++ {
		m.Write(arrayBase+uint64(8*i), int64(i+1), 8)
		want += int64(i + 1)
	}
	var regs [isa.NumRegs]int64

	golden, err := emu.Run(prog, &regs, m, emu.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden model: sum = %d (want %d), %d blocks, %d instructions\n\n",
		golden.Mem.Read(resultAddr, 8), want, golden.Blocks, golden.Insts)

	for _, recovery := range []core.RecoveryScheme{core.RecoverFlush, core.RecoverDSRE} {
		cfg := sim.DefaultConfig()
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = recovery
		mc, err := sim.New(cfg, prog, &regs, m, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		r, err := mc.Run()
		if err != nil {
			log.Fatal(err)
		}
		if got := r.Mem.Read(resultAddr, 8); got != want {
			log.Fatalf("%s: wrong sum %d (protocol bug!)", recovery, got)
		}
		fmt.Printf("aggressive + %-5s : IPC %.3f, %d violations, %d flushes, %d selective corrections\n",
			recovery, float64(golden.Insts)/float64(r.Stats.Cycles),
			r.Stats.LSQ.Violations, r.Stats.Flushes, r.Stats.DSRECorrections)
	}
	fmt.Println("\nEvery iteration's cursor load aliases the previous iteration's store,")
	fmt.Println("so aggressive issue mis-speculates constantly; DSRE repairs each one by")
	fmt.Println("re-executing only the dependent slice instead of flushing the window.")
}
