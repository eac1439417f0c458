package program

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestFanoutProperty: a value consumed by n consumers (any n the block can
// hold) still reaches all of them through whatever mov tree the builder
// inserts, and the tree respects the target limit and the DAG rule.
func TestFanoutProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := 1 + int(raw)%40
		b := New("fanout")
		blk := b.NewBlock("x")
		v := blk.Read(1)
		sum := blk.Const(0)
		for i := 0; i < n; i++ {
			sum = blk.Op(isa.OpAdd, sum, v)
		}
		blk.Write(2, sum)
		blk.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		var regs [isa.NumRegs]int64
		regs[1] = 3
		res, err := emu.Run(p, &regs, mem.New(), emu.Options{})
		if err != nil {
			return false
		}
		return res.Regs[2] == int64(3*n)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSelectChainsProperty: randomly nested selects evaluate like Go's
// conditional expression.
func TestSelectChainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(5)
		conds := make([]int64, depth)
		for i := range conds {
			conds[i] = int64(r.Intn(2))
		}

		b := New("selects")
		blk := b.NewBlock("x")
		// Registers 10.. hold the condition values.
		want := int64(1000) // innermost else
		v := blk.Const(1000)
		for i := 0; i < depth; i++ {
			c := blk.Read(uint8(10 + i))
			taken := blk.Const(int64(i))
			v = blk.Select(blk.Op(isa.OpTne, c, blk.Const(0)), taken, v)
			if conds[i] != 0 {
				want = int64(i)
			}
		}
		blk.Write(2, v)
		blk.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		var regs [isa.NumRegs]int64
		for i, c := range conds {
			regs[10+i] = c
		}
		res, err := emu.Run(p, &regs, mem.New(), emu.Options{})
		if err != nil {
			return false
		}
		return res.Regs[2] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestArithChainsProperty: random straight-line arithmetic agrees between
// the builder+emulator and direct Go evaluation.
func TestArithChainsProperty(t *testing.T) {
	ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := New("arith")
		blk := b.NewBlock("x")
		goVals := []int64{r.Int63n(1 << 20), r.Int63n(1 << 20)}
		edgeVals := []interface{}{blk.Read(1), blk.Read(2)}
		n := 3 + r.Intn(12)
		for i := 0; i < n; i++ {
			op := ops[r.Intn(len(ops))]
			ai, bi := r.Intn(len(goVals)), r.Intn(len(goVals))
			edgeVals = append(edgeVals, blk.Op(op, edgeVals[ai].(Val), edgeVals[bi].(Val)))
			goVals = append(goVals, isa.Eval(op, goVals[ai], goVals[bi], 0))
		}
		last := edgeVals[len(edgeVals)-1].(Val)
		blk.Write(3, last)
		// Consume every intermediate so no value is dead.
		acc := edgeVals[0].(Val)
		for _, v := range edgeVals[1:] {
			acc = blk.Op(isa.OpXor, acc, v.(Val))
		}
		blk.Write(4, acc)
		blk.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		var regs [isa.NumRegs]int64
		regs[1], regs[2] = goVals[0], goVals[1]
		res, err := emu.Run(p, &regs, mem.New(), emu.Options{})
		if err != nil {
			return false
		}
		return res.Regs[3] == goVals[len(goVals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
