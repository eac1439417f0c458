package emu

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// buildLoop returns a program that runs `st mem[0x100+8i] = i` for
// i = n-1 .. 0 and halts, leaving the loop counter in r1.
func buildLoop(t *testing.T) *isa.Program {
	t.Helper()
	b := program.New("loop")
	blk := b.NewBlock("loop")
	i := blk.Read(1)
	i2 := blk.Op(isa.OpSub, i, blk.Const(1))
	addr := blk.Op(isa.OpAdd, blk.Const(0x100), blk.Op(isa.OpShl, i2, blk.Const(3)))
	blk.Store(addr, 0, i2)
	blk.Write(1, i2)
	more := blk.Op(isa.OpTgt, i2, blk.Const(0))
	blk.BranchIf(more, "loop", "@halt")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunLoop(t *testing.T) {
	p := buildLoop(t)
	var regs [isa.NumRegs]int64
	regs[1] = 8
	res, err := Run(p, &regs, mem.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 8 || res.Regs[1] != 0 {
		t.Fatalf("blocks=%d r1=%d", res.Blocks, res.Regs[1])
	}
	for i := int64(0); i < 8; i++ {
		if got := res.Mem.Read(0x100+uint64(8*i), 8); got != i {
			t.Errorf("mem[%d] = %d", i, got)
		}
	}
	if res.Stores != 8 || res.Loads != 0 {
		t.Errorf("stores=%d loads=%d", res.Stores, res.Loads)
	}
}

func TestInputsNotMutated(t *testing.T) {
	p := buildLoop(t)
	var regs [isa.NumRegs]int64
	regs[1] = 4
	m := mem.New()
	m.Write(0x900, 42, 8)
	if _, err := Run(p, &regs, m, Options{}); err != nil {
		t.Fatal(err)
	}
	if regs[1] != 4 {
		t.Error("input registers mutated")
	}
	if m.Read(0x100, 8) != 0 {
		t.Error("input memory mutated")
	}
}

func TestFuelLimit(t *testing.T) {
	b := program.New("forever")
	blk := b.NewBlock("spin")
	blk.Write(1, blk.Const(1))
	blk.Branch("spin")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, nil, mem.New(), Options{MaxBlocks: 100})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestOracleAndStoreTrace(t *testing.T) {
	// Block: store to X, load from X — a within-block dependence.
	b := program.New("dep")
	blk := b.NewBlock("only")
	base := blk.Const(0x100)
	blk.Store(base, 0, blk.Const(7))
	v := blk.Load(base, 0)
	blk.Write(1, v)
	blk.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, nil, mem.New(), Options{CollectOracle: true, TraceStores: true, TraceBlocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[1] != 7 {
		t.Fatalf("r1 = %d", res.Regs[1])
	}
	if dep := res.Oracle.Dep(core.DynRef{Seq: 0, LSID: 1}); dep != (core.DynRef{Seq: 0, LSID: 0}) {
		t.Errorf("oracle = %v", dep)
	}
	if dep := res.Oracle.Dep(core.DynRef{Seq: 0, LSID: 0}); dep.Valid() {
		t.Errorf("store has a dependence %v", dep)
	}
	want := StoreRecord{Ref: core.DynRef{Seq: 0, LSID: 0}, Addr: 0x100, Data: 7, Size: 8}
	if len(res.StoreTrace) != 1 || res.StoreTrace[0] != want {
		t.Errorf("store trace = %+v", res.StoreTrace)
	}
	if len(res.BlockTrace) != 1 || res.BlockTrace[0] != 0 {
		t.Errorf("block trace = %v", res.BlockTrace)
	}
	if res.DepDistance[0] == 0 {
		t.Error("dependence distance histogram empty")
	}
}

func TestExactlyOneFiresViolation(t *testing.T) {
	// Hand-corrupt a program so a slot receives two values: the emulator
	// must reject it (dynamic exactly-one-producer rule).
	b := program.New("bad")
	blk := b.NewBlock("only")
	x := blk.Read(1)
	y := blk.Op(isa.OpAdd, x, x)
	blk.Write(2, y)
	blk.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the add's write target so w0 receives two values.
	for i := range p.Blocks[0].Insts {
		in := &p.Blocks[0].Insts[i]
		if in.Op == isa.OpAdd && len(in.Targets) == 1 {
			in.Targets = append(in.Targets, in.Targets[0])
		}
	}
	if _, err := Run(p, nil, mem.New(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "two values") {
		t.Fatalf("err = %v", err)
	}
}

func TestBranchOutOfRange(t *testing.T) {
	b := program.New("bad")
	blk := b.NewBlock("only")
	tgt := blk.Read(1)
	blk.BranchInd(tgt)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var regs [isa.NumRegs]int64
	regs[1] = 99
	if _, err := Run(p, &regs, mem.New(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("err = %v", err)
	}
}
