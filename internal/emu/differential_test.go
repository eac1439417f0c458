package emu_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/workload"
)

// diffOptions turns on every artifact the emulator can produce.
var diffOptions = emu.Options{CollectOracle: true, TraceBlocks: 1 << 30, TraceStores: true}

// smallSizes scales each kernel to a few hundred blocks, the second size
// the kernel differential runs at besides the kernel default.
var smallSizes = map[string]int{
	"bank": 128, "cursor": 128, "dotprod": 256, "hashmap": 128,
	"histogram": 128, "listsum": 128, "matmul": 6, "queue": 64,
	"sort": 16, "spmv": 32, "stencil": 64, "strmatch": 128,
	"treewalk": 128, "vecsum": 256,
}

// diffRun runs the emulator and the reference on the same inputs and
// reports every Result field, or error string, on which they differ, and
// every (seq, LSID) pair on which the oracle table and the reference's
// dependence map disagree.
func diffRun(t *testing.T, name string, p *isa.Program, regs *[isa.NumRegs]int64, m *mem.Memory, opt emu.Options) *emu.Result {
	t.Helper()
	got, gotErr := emu.Run(p, regs, m, opt)
	want, wantOracle, wantErr := emu.ReferenceRun(p, regs, m, opt)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		return nil
	}
	if err := diffResults(got, want); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if err := diffOracle(p, got, wantOracle); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return got
}

// diffOracle checks the oracle table against the reference's map on every
// (seq, LSID) pair: each committed block and one past either end, each
// LSID from -1 to one past the program's highest.  So a dependence the
// table misses, one it invents (a store's own slot, say) and one that
// names the wrong store all show, as does a table that holds the right
// stores under the wrong block.  An LSID outside the ISA's range names no
// slot, so the table answers NoDynRef for it by design; only a corrupted
// program has one.
func diffOracle(p *isa.Program, got *emu.Result, want map[core.DynRef]core.DynRef) error {
	if got.Oracle == nil {
		return fmt.Errorf("Oracle: no table")
	}
	hi := 0
	for _, b := range p.Blocks {
		for i := range b.Insts {
			hi = max(hi, int(b.Insts[i].LSID)+1)
		}
	}
	for seq := int64(-1); seq <= got.Blocks; seq++ {
		for l := -1; l <= min(hi, math.MaxInt8); l++ {
			ref := core.DynRef{Seq: seq, LSID: int8(l)}
			w, ok := want[ref]
			if !ok || l < 0 || l >= isa.MaxMemOps {
				w = core.NoDynRef
			}
			if d := got.Oracle.Dep(ref); d != w {
				return fmt.Errorf("Oracle: load %v depends on %v, reference %v (ok=%v)", ref, d, w, ok)
			}
		}
	}
	return nil
}

func diffResults(got, want *emu.Result) error {
	switch {
	case got.Regs != want.Regs:
		return fmt.Errorf("Regs differ")
	case got.Blocks != want.Blocks || got.Insts != want.Insts ||
		got.Loads != want.Loads || got.Stores != want.Stores:
		return fmt.Errorf("counts %d/%d/%d/%d, reference %d/%d/%d/%d",
			got.Blocks, got.Insts, got.Loads, got.Stores,
			want.Blocks, want.Insts, want.Loads, want.Stores)
	case got.DepDistance != want.DepDistance:
		return fmt.Errorf("DepDistance %v, reference %v", got.DepDistance, want.DepDistance)
	case !reflect.DeepEqual(got.BlockTrace, want.BlockTrace):
		return fmt.Errorf("BlockTrace differs")
	case !reflect.DeepEqual(got.StoreTrace, want.StoreTrace):
		return fmt.Errorf("StoreTrace differs")
	case !got.Mem.Equal(want.Mem):
		a, _ := got.Mem.FirstDiff(want.Mem)
		return fmt.Errorf("memory differs first at %#x", a)
	case got.Mem.Footprint() != want.Mem.Footprint():
		return fmt.Errorf("Footprint %d pages, reference %d", got.Mem.Footprint(), want.Mem.Footprint())
	}
	return nil
}

// TestDifferentialKernels compares the emulator with the reference on every
// kernel at two sizes and three seeds.
func TestDifferentialKernels(t *testing.T) {
	for _, k := range workload.Names() {
		for _, size := range []int{smallSizes[k], 0} {
			for seed := uint64(1); seed <= 3; seed++ {
				w, err := workload.Build(k, workload.Params{Size: size, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/size=%d/seed=%d", k, size, seed)
				res := diffRun(t, name, w.Program, &w.Regs, w.Mem, diffOptions)
				if res == nil {
					t.Errorf("%s: no result", name)
				} else if k == "stencil" && res.DependentLoads() == 0 {
					t.Errorf("%s: conflict kernel produced an empty oracle", name)
				}
			}
		}
	}
}

// shadowLo and shadowSpan bound the random programs' addresses: they
// straddle the 4 KiB boundary at 0x1000, so 8-byte accesses at 0xff9–0xfff
// cross it.
const (
	shadowLo   = 0xff8
	shadowSpan = 0x1008 - shadowLo
)

// randomProgram builds a looping program of one to three blocks whose
// loads and stores (ld, ld1, st, st1, some predicated) hit overlapping and
// page-straddling addresses in [0xff8, 0x1007], plus a second region on
// another page so the shadow's page cache switches.
func randomProgram(t *testing.T, rng *rand.Rand) (*isa.Program, [isa.NumRegs]int64, *mem.Memory) {
	t.Helper()
	b := program.New("random")
	nblk := 1 + rng.Intn(3)
	for j := 0; j < nblk; j++ {
		blk := b.NewBlock(fmt.Sprintf("b%d", j))
		i := blk.Read(1)
		x := blk.Read(2)
		for k, n := 0, 2+rng.Intn(6); k < n; k++ {
			base := int64(shadowLo)
			if rng.Intn(4) == 0 {
				base = 0x5ff8
			}
			off := blk.Op(isa.OpAnd,
				blk.Op(isa.OpAdd, blk.Op(isa.OpMul, i, blk.Const(int64(1+rng.Intn(7)))), blk.Const(rng.Int63n(shadowSpan))),
				blk.Const(shadowSpan-1))
			addr := blk.Op(isa.OpAdd, blk.Const(base), off)
			kind := rng.Intn(6)
			switch kind {
			case 0:
				x = blk.Op(isa.OpAdd, x, blk.Load(addr, 0))
				continue
			case 1:
				x = blk.Op(isa.OpAdd, x, blk.Load1(addr, 0))
				continue
			}
			data := blk.Op(isa.OpXor, x, blk.Const(rng.Int63()))
			switch kind {
			case 2:
				blk.Store(addr, 0, data)
			case 3:
				blk.Store1(addr, 0, data)
			case 4:
				odd := blk.Op(isa.OpAnd, i, blk.Const(1))
				blk.StoreIf(odd, rng.Intn(2) == 0, addr, 0, data)
			case 5:
				odd := blk.Op(isa.OpAnd, i, blk.Const(1))
				blk.Store1If(odd, rng.Intn(2) == 0, addr, 0, data)
			}
		}
		i2 := blk.Op(isa.OpSub, i, blk.Const(1))
		blk.Write(1, i2)
		blk.Write(2, x)
		blk.BranchIf(blk.Op(isa.OpTgt, i2, blk.Const(0)), fmt.Sprintf("b%d", (j+1)%nblk), "@halt")
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var regs [isa.NumRegs]int64
	regs[1] = int64(10 + rng.Intn(60))
	regs[2] = rng.Int63()
	m := mem.New()
	for k := rng.Intn(4); k > 0; k-- {
		m.Write(uint64(shadowLo+rng.Intn(shadowSpan)), rng.Int63(), 8)
	}
	return p, regs, m
}

// TestDifferentialRandomPrograms compares the emulator with the reference
// on fixed-seed random programs built around a page boundary.
func TestDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var conflicts int64
	for n := 0; n < 400; n++ {
		p, regs, m := randomProgram(t, rng)
		if res := diffRun(t, fmt.Sprintf("program %d", n), p, &regs, m, diffOptions); res != nil {
			conflicts += res.DependentLoads()
		}
	}
	if conflicts == 0 {
		t.Fatal("no random program has a store→load conflict: the oracle is untested")
	}
}

// corruptCase builds a valid program, then corrupts it so execution fails.
type corruptCase struct {
	name    string
	want    string // a substring of the error that proves the intended check fired
	build   func(*program.Builder)
	corrupt func(*isa.Program)
	opt     emu.Options
}

// chain is a block that stores r1 at 0xffc, loads the word at 0xff8 (an
// overlapping conflict) and writes r2 = (r1 + 1) + load, so the oracle and
// the store trace hold state when an error strikes.
func chain(b *program.Builder) {
	blk := b.NewBlock("only")
	x := blk.Read(1)
	blk.Store(blk.Const(0xffc), 0, x)
	ld := blk.Load(blk.Const(0xff8), 0)
	y := blk.Op(isa.OpAdd, x, blk.Const(1))
	z := blk.Op(isa.OpAdd, y, ld)
	blk.Write(2, z)
	blk.Halt()
}

// instWith returns the first instruction of block 0 with the given opcode.
func instWith(p *isa.Program, op isa.Opcode) *isa.Inst {
	for i := range p.Blocks[0].Insts {
		if in := &p.Blocks[0].Insts[i]; in.Op == op {
			return in
		}
	}
	panic(fmt.Sprintf("no %s instruction", op))
}

// lastAdd returns the last add of block 0, the one that feeds the write.
func lastAdd(p *isa.Program) *isa.Inst {
	var last *isa.Inst
	for i := range p.Blocks[0].Insts {
		if in := &p.Blocks[0].Insts[i]; in.Op == isa.OpAdd {
			last = in
		}
	}
	return last
}

var corruptCases = []corruptCase{
	{name: "operand receives two values", want: "operand i6.a received two values", build: chain, corrupt: func(p *isa.Program) {
		in := instWith(p, isa.OpAdd)
		in.Targets = append(in.Targets, in.Targets[0])
	}},
	{name: "write slot receives two values", want: "write slot 0 received two values", build: chain, corrupt: func(p *isa.Program) {
		in := lastAdd(p)
		in.Targets = append(in.Targets, in.Targets[0])
	}},
	{name: "register read delivers twice", want: "read r1: operand i1.b received two values", build: chain, corrupt: func(p *isa.Program) {
		r := &p.Blocks[0].Reads[0]
		r.Targets = append(r.Targets, r.Targets[0])
	}},
	{name: "missing operand", want: "i6 (add): operand b missing", build: chain, corrupt: func(p *isa.Program) {
		instWith(p, isa.OpLd).Targets = nil
	}},
	{name: "missing write", want: "write slot 0 (r2) received no value", build: chain, corrupt: func(p *isa.Program) {
		lastAdd(p).Targets = nil
	}},
	{name: "second branch", want: "second branch fired", build: chain, corrupt: func(p *isa.Program) {
		b := p.Blocks[0]
		b.Insts = append(b.Insts, isa.Inst{Op: isa.OpBro, Imm: isa.HaltTarget, LSID: isa.NoLSID})
	}},
	{name: "no branch", want: "no branch fired", build: chain, corrupt: func(p *isa.Program) {
		in := instWith(p, isa.OpBro)
		in.Op, in.Targets = isa.OpNop, nil
	}},
	{name: "out-of-range branch", want: "out-of-range block 99", build: chain, corrupt: func(p *isa.Program) {
		instWith(p, isa.OpBro).Imm = 99
	}},
	{name: "nonexistent entry", want: "nonexistent block 7", build: chain, corrupt: func(p *isa.Program) {
		p.Entry = 7
	}},
	{name: "block budget exhausted", want: "block budget 100 exhausted", build: func(b *program.Builder) {
		blk := b.NewBlock("spin")
		x := blk.Read(1)
		blk.Store(x, 0, x)
		blk.Write(1, blk.Op(isa.OpAdd, x, blk.Const(3)))
		blk.Branch("spin")
	}, opt: emu.Options{MaxBlocks: 100}},
}

// TestDifferentialCorruptPrograms requires the emulator to reject each
// hand-corrupted program with exactly the reference's error string.
func TestDifferentialCorruptPrograms(t *testing.T) {
	for _, c := range corruptCases {
		b := program.New("bad")
		c.build(b)
		p, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.corrupt != nil {
			c.corrupt(p)
		}
		var regs [isa.NumRegs]int64
		regs[1] = 0xff0
		opt := c.opt
		opt.CollectOracle, opt.TraceStores, opt.TraceBlocks = true, true, 16
		_, gotErr := emu.Run(p, &regs, mem.New(), opt)
		_, _, wantErr := emu.ReferenceRun(p, &regs, mem.New(), opt)
		if gotErr == nil || wantErr == nil {
			t.Errorf("%s: error %v, reference %v: both must fail", c.name, gotErr, wantErr)
			continue
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%s:\n got  %q\n want %q", c.name, gotErr, wantErr)
		}
		if !strings.Contains(wantErr.Error(), c.want) {
			t.Errorf("%s: reference error %q lacks %q", c.name, wantErr, c.want)
		}
	}
}

// lsidLoop is a looping block whose three loads each read a byte one of
// its two stores wrote, so every load has an oracle entry in every
// iteration; the corruptions below then rewrite its LSIDs.
func lsidLoop(b *program.Builder) {
	blk := b.NewBlock("loop")
	i := blk.Read(1)
	blk.Store(blk.Const(0xff8), 0, i)
	x := blk.Load(blk.Const(0xffc), 0)
	blk.Store1(blk.Const(0x1000), 0, x)
	y := blk.Op(isa.OpAdd, x, blk.Load1(blk.Const(0x1000), 0))
	y = blk.Op(isa.OpAdd, y, blk.Load(blk.Const(0xff8), 0))
	i2 := blk.Op(isa.OpSub, i, blk.Const(1))
	blk.Write(1, i2)
	blk.Write(2, y)
	blk.BranchIf(blk.Op(isa.OpTgt, i2, blk.Const(0)), "loop", "@halt")
}

// memInsts returns block 0's memory instructions in instruction order.
func memInsts(p *isa.Program) []*isa.Inst {
	var ms []*isa.Inst
	for i := range p.Blocks[0].Insts {
		if in := &p.Blocks[0].Insts[i]; in.Op.IsMem() {
			ms = append(ms, in)
		}
	}
	return ms
}

// TestDifferentialOracleCorruptLSIDs runs programs whose LSIDs break the
// validator's rules but still execute.  The table must agree with the
// reference's map wherever an LSID names a slot, keep the younger of two
// loads sharing one, and drop an LSID outside the ISA's range rather than
// write past its block.
func TestDifferentialOracleCorruptLSIDs(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(ms []*isa.Inst) // ms: st, ld, st1, ld1, ld
		dropped bool                 // the reference holds an entry the table drops
	}{
		{"valid", func([]*isa.Inst) {}, false},
		{"loads share an LSID", func(ms []*isa.Inst) { ms[4].LSID = ms[1].LSID }, false},
		{"load shares a store's LSID", func(ms []*isa.Inst) { ms[3].LSID = ms[2].LSID }, false},
		{"LSID gap", func(ms []*isa.Inst) { ms[4].LSID = isa.MaxMemOps - 1 }, false},
		{"LSIDs reversed", func(ms []*isa.Inst) {
			for k, in := range ms {
				in.LSID = int8(len(ms) - 1 - k)
			}
		}, false},
		{"LSID beyond the ISA", func(ms []*isa.Inst) { ms[3].LSID = isa.MaxMemOps + 8 }, true},
		{"load without an LSID", func(ms []*isa.Inst) { ms[1].LSID = isa.NoLSID }, true},
	}
	for _, c := range cases {
		b := program.New("lsid")
		lsidLoop(b)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(memInsts(p))
		var regs [isa.NumRegs]int64
		regs[1] = 4
		res := diffRun(t, c.name, p, &regs, mem.New(), diffOptions)
		if res == nil {
			t.Errorf("%s: no result", c.name)
			continue
		}
		_, want, err := emu.ReferenceRun(p, &regs, mem.New(), diffOptions)
		if err != nil {
			t.Fatal(err)
		}
		dropped := false
		for ref := range want {
			dropped = dropped || ref.LSID < 0 || int(ref.LSID) >= isa.MaxMemOps
		}
		if dropped != c.dropped {
			t.Errorf("%s: reference holds an out-of-range LSID: %v, want %v", c.name, dropped, c.dropped)
		}
	}
}

// dep is a dependence the oracle must report: block seq's load LSID
// waits for the store LSID store of block storeSeq.
type dep struct {
	seq      int64
	lsid     int8
	storeSeq int64
	store    int8
}

// checkDeps requires each listed dependence in the result's oracle.  A
// store of -1 means the load has none.
func checkDeps(t *testing.T, name string, res *emu.Result, deps []dep) {
	t.Helper()
	for _, d := range deps {
		want := core.DynRef{Seq: d.storeSeq, LSID: d.store}
		if d.store < 0 {
			want = core.NoDynRef
		}
		if got := res.Oracle.Dep(core.DynRef{Seq: d.seq, LSID: d.lsid}); got != want {
			t.Errorf("%s: load %d/%d depends on %v, want %v", name, d.seq, d.lsid, got, want)
		}
	}
}

// TestDifferentialShadowWords drives the shadow's word and byte entries:
// a byte store into a word a whole-word store stamped, then word and byte
// loads of it; a word stamped byte by byte in reverse order, then an
// aligned and an unaligned word load and a byte load over it; a
// whole-word store over those bytes, then a byte load; a byte store into
// a word nothing wrote, then loads of the word and of a byte no store
// wrote.  Each load's store is also checked by hand.
func TestDifferentialShadowWords(t *testing.T) {
	b := program.New("words")
	blk := b.NewBlock("only")
	x := blk.Read(1)
	at := func(a int64) program.Val { return blk.Const(a) }
	plus := func(k int64) program.Val { return blk.Op(isa.OpAdd, x, blk.Const(k)) }
	sum := x
	add := func(v program.Val) { sum = blk.Op(isa.OpAdd, sum, v) }
	blk.Store(at(0x100), 0, x)        // m0
	blk.Store1(at(0x103), 0, plus(1)) // m1
	add(blk.Load(at(0x100), 0))       // m2: m1, the word's last writer
	add(blk.Load1(at(0x101), 0))      // m3: m0, the byte's
	for k := int64(7); k >= 0; k-- {
		blk.Store1(at(0x200+k), 0, plus(k)) // m4..m11: m11 writes byte 0x200
	}
	add(blk.Load(at(0x200), 0))       // m12: m11
	add(blk.Load(at(0x1fd), 0))       // m13: m11, over 0x1fd..0x204
	add(blk.Load1(at(0x207), 0))      // m14: m4
	blk.Store(at(0x200), 0, plus(9))  // m15
	add(blk.Load1(at(0x203), 0))      // m16: m15
	blk.Store1(at(0x20a), 0, plus(3)) // m17
	add(blk.Load(at(0x208), 0))       // m18: m17
	add(blk.Load1(at(0x209), 0))      // m19: none
	blk.Write(2, sum)
	blk.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var regs [isa.NumRegs]int64
	regs[1] = 0x1234567
	m := mem.New()
	m.Write(0x1f8, -1, 8)
	m.Write(0x208, 0x0102030405060708, 8)
	res := diffRun(t, "words", p, &regs, m, diffOptions)
	if res == nil {
		t.Fatal("no result")
	}
	checkDeps(t, "words", res, []dep{
		{0, 2, 0, 1}, {0, 3, 0, 0}, {0, 12, 0, 11}, {0, 13, 0, 11},
		{0, 14, 0, 4}, {0, 16, 0, 15}, {0, 18, 0, 17}, {0, 19, 0, -1},
	})
}

// TestDifferentialPageEdge makes 8-byte stores and loads at each of
// 0xff9–0xfff, which cross into the page at 0x1000, right after touching
// that neighbouring page and then after touching their own, so the page
// caches of memory and shadow hold one page or the other when an access
// crosses.
func TestDifferentialPageEdge(t *testing.T) {
	b := program.New("edge")
	blk := b.NewBlock("loop")
	off := blk.Read(1)
	sum := blk.Read(2)
	add := func(v program.Val) { sum = blk.Op(isa.OpAdd, sum, v) }
	add(blk.Load(blk.Const(0x1010), 0))                           // m0: page 1
	blk.Store(off, 0, blk.Op(isa.OpMul, off, blk.Const(0x10001))) // m1: crosses
	add(blk.Load(off, 0))                                         // m2: m1
	add(blk.Load(blk.Const(0xff0), 0))                            // m3: page 0
	blk.Store1(off, 7, sum)                                       // m4: byte on page 1
	add(blk.Load(off, 0))                                         // m5: m4
	add(blk.Load1(blk.Const(0x1000), 0))                          // m6: m1
	blk.Store(blk.Const(0x1000), 0, sum)                          // m7: page 1
	add(blk.Load(off, 1))                                         // m8: m7
	next := blk.Op(isa.OpAdd, off, blk.Const(1))
	blk.Write(1, next)
	blk.Write(2, sum)
	blk.BranchIf(blk.Op(isa.OpTltu, next, blk.Const(0x1000)), "loop", "@halt")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var regs [isa.NumRegs]int64
	regs[1] = 0xff9
	m := mem.New()
	for a := uint64(0xfe8); a < 0x1018; a += 8 {
		m.Write(a, int64(a*0x9e3779b9), 8)
	}
	res := diffRun(t, "edge", p, &regs, m, diffOptions)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Blocks != 7 {
		t.Fatalf("ran %d blocks, want one per offset 0xff9..0xfff", res.Blocks)
	}
	for seq := int64(0); seq < 7; seq++ {
		byte0 := int8(1)
		if seq == 0 {
			byte0 = 4
		}
		checkDeps(t, "edge", res, []dep{{seq, 2, seq, 1}, {seq, 5, seq, 4}, {seq, 6, seq, byte0}, {seq, 8, seq, 7}})
	}
}

// reentry builds blocks a and b that alternate: a stores and loads words
// at 0x300 and moves on to b, which loops back to a while r1 counts down.
// When feedOdd is set, a writes r2 through a mov predicated on r1 being
// odd, so the second entry of a, with r1 even, leaves the write slot
// empty although the first entry filled it.
func reentry(b *program.Builder, feedOdd bool) {
	a := b.NewBlock("a")
	i := a.Read(1)
	acc := a.Read(2)
	slot := func(k int64) program.Val {
		return a.Op(isa.OpAdd, a.Const(0x300), a.Op(isa.OpShl, a.Op(isa.OpAnd, a.Op(isa.OpAdd, i, a.Const(k)), a.Const(3)), a.Const(3)))
	}
	a.Store(slot(0), 0, i)
	v := a.Op(isa.OpAdd, acc, a.Load(slot(3), 0))
	if feedOdd {
		v = a.OpPred(isa.OpMov, a.Op(isa.OpAnd, i, a.Const(1)), true, v, program.Val{})
	}
	a.Write(2, v)
	a.Branch("b")
	bb := b.NewBlock("b")
	j := bb.Read(1)
	j2 := bb.Op(isa.OpSub, j, bb.Const(1))
	bb.Store1(bb.Const(0x301), 0, j2)
	bb.Write(1, j2)
	bb.BranchIf(bb.Op(isa.OpTgt, j2, bb.Const(0)), "a", "@halt")
}

// TestDifferentialBlockReentry runs a block again after another block
// ran, so the emulator executes it from the form it decoded on the first
// entry: once to completion, and once where the re-entry must fail on a
// write slot the first entry filled.
func TestDifferentialBlockReentry(t *testing.T) {
	for _, feedOdd := range []bool{false, true} {
		b := program.New("reentry")
		reentry(b, feedOdd)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var regs [isa.NumRegs]int64
		regs[1] = 9
		name := fmt.Sprintf("feedOdd=%v", feedOdd)
		res := diffRun(t, name, p, &regs, mem.New(), diffOptions)
		if feedOdd {
			if res != nil {
				t.Errorf("%s: ran to completion", name)
			}
			_, _, err := emu.ReferenceRun(p, &regs, mem.New(), diffOptions)
			if err == nil || !strings.Contains(err.Error(), "(seq 2): write slot 0 (r2) received no value") {
				t.Errorf("%s: reference error %v, want the second entry of a to fail", name, err)
			}
			continue
		}
		if res == nil {
			t.Fatalf("%s: no result", name)
		}
		if len(res.BlockTrace) != 18 || res.BlockTrace[0] != 0 || res.BlockTrace[1] != 1 || res.BlockTrace[2] != 0 {
			t.Errorf("%s: block trace %v, want a and b alternating nine times", name, res.BlockTrace)
		}
		if res.DependentLoads() == 0 {
			t.Errorf("%s: no load depends on a store", name)
		}
	}
}
