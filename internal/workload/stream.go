package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func init() {
	register("vecsum", "swim/mgrid (unit-stride streaming reduce)", buildVecsum)
	register("dotprod", "art (two-stream multiply-accumulate)", buildDotprod)
	register("stencil", "mgrid (in-place stencil with loop-carried store→load)", buildStencil)
	register("strmatch", "parser (byte-granularity scan and transform)", buildStrmatch)
}

// Registers shared by the streaming kernels.
const (
	rPtr  = 1
	rAcc  = 2
	rEnd  = 3
	rPtr2 = 4
	rCnt  = 5
)

// buildVecsum sums Size int64 elements.  Pure streaming: no store→load
// aliasing, so aggressive load issue is always correct and conservative
// policies only lose.  mem[ResultBase] = sum.
func buildVecsum(p Params) (*Workload, error) {
	p = p.withDefaults(16384, 8).clampUnroll(16)
	n := roundUp(p.Size, p.Unroll)

	b := program.New("vecsum")
	loop := b.NewBlock("loop")
	ptr := loop.Read(rPtr)
	sum := loop.Read(rAcc)
	end := loop.Read(rEnd)
	for k := 0; k < p.Unroll; k++ {
		v := loop.Load(ptr, int64(8*k))
		sum = loop.Op(isa.OpAdd, sum, v)
	}
	ptr2 := loop.Op(isa.OpAdd, ptr, loop.Const(int64(8*p.Unroll)))
	loop.Write(rPtr, ptr2)
	loop.Write(rAcc, sum)
	more := loop.Op(isa.OpTltu, ptr2, end)
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(rAcc)
	done.Store(done.Const(ResultBase), 0, res)
	done.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("sum of %d int64 elements, unroll %d", n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	var want int64
	for i := 0; i < n; i++ {
		v := int64(splitmix64(&seed) >> 16)
		w.Mem.Write(DataBase+uint64(8*i), v, 8)
		want += v
	}
	w.Regs[rPtr] = DataBase
	w.Regs[rEnd] = DataBase + int64(8*n)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		return checkU64(m, ResultBase, want, "vecsum")
	}
	return w, nil
}

// buildDotprod computes the dot product of two Size-element vectors.
// mem[ResultBase] = dot.
func buildDotprod(p Params) (*Workload, error) {
	p = p.withDefaults(8192, 8).clampUnroll(10)
	n := roundUp(p.Size, p.Unroll)

	b := program.New("dotprod")
	loop := b.NewBlock("loop")
	pa := loop.Read(rPtr)
	pb := loop.Read(rPtr2)
	acc := loop.Read(rAcc)
	end := loop.Read(rEnd)
	for k := 0; k < p.Unroll; k++ {
		va := loop.Load(pa, int64(8*k))
		vb := loop.Load(pb, int64(8*k))
		acc = loop.Op(isa.OpAdd, acc, loop.Op(isa.OpMul, va, vb))
	}
	step := loop.Const(int64(8 * p.Unroll))
	pa2 := loop.Op(isa.OpAdd, pa, step)
	pb2 := loop.Op(isa.OpAdd, pb, step)
	loop.Write(rPtr, pa2)
	loop.Write(rPtr2, pb2)
	loop.Write(rAcc, acc)
	more := loop.Op(isa.OpTltu, pa2, end)
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(rAcc)
	done.Store(done.Const(ResultBase), 0, res)
	done.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("dot product of two %d-element vectors, unroll %d", n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	var want int64
	for i := 0; i < n; i++ {
		a := int64(splitmix64(&seed) % 100000)
		c := int64(splitmix64(&seed) % 100000)
		w.Mem.Write(DataBase+uint64(8*i), a, 8)
		w.Mem.Write(DataBase2+uint64(8*i), c, 8)
		want += a * c
	}
	w.Regs[rPtr] = DataBase
	w.Regs[rPtr2] = DataBase2
	w.Regs[rEnd] = DataBase + int64(8*n)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		return checkU64(m, ResultBase, want, "dotprod")
	}
	return w, nil
}

// buildStencil runs an in-place forward pass a[i] += a[i-1] over Size
// elements.  Every iteration loads the word the previous iteration stored
// (dependence distance of two memory operations), making it the
// predictable-conflict stress case: aggressive issue violates constantly,
// store-set prediction learns the single conflicting pair quickly, and DSRE
// repairs the misses it still takes.
func buildStencil(p Params) (*Workload, error) {
	p = p.withDefaults(8192, 4).clampUnroll(10)
	n := roundUp(p.Size, p.Unroll) + 1 // element 0 is read-only seed

	b := program.New("stencil")
	loop := b.NewBlock("loop")
	ptr := loop.Read(rPtr) // points at a[i]
	end := loop.Read(rEnd)
	for k := 0; k < p.Unroll; k++ {
		prev := loop.Load(ptr, int64(8*k)-8)
		v := loop.Load(ptr, int64(8*k))
		loop.Store(ptr, int64(8*k), loop.Op(isa.OpAdd, v, prev))
	}
	ptr2 := loop.Op(isa.OpAdd, ptr, loop.Const(int64(8*p.Unroll)))
	loop.Write(rPtr, ptr2)
	more := loop.Op(isa.OpTltu, ptr2, end)
	loop.BranchIf(more, "loop", "@halt")

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("in-place a[i] += a[i-1] over %d elements, unroll %d", n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	ref := make([]int64, n)
	for i := 0; i < n; i++ {
		ref[i] = int64(splitmix64(&seed) % 1000)
		w.Mem.Write(DataBase+uint64(8*i), ref[i], 8)
	}
	for i := 1; i < n; i++ {
		ref[i] += ref[i-1]
	}
	w.Regs[rPtr] = DataBase + 8
	w.Regs[rEnd] = DataBase + int64(8*n)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < n; i++ {
			if err := checkU64(m, DataBase+uint64(8*i), ref[i], "stencil[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// buildStrmatch scans Size bytes, counting occurrences of 'a' and writing a
// transformed copy (c+1) to a second buffer.  Byte-granularity accesses
// exercise the 1-byte load/store paths; there is no aliasing.
// mem[ResultBase] = count of 'a' bytes.
func buildStrmatch(p Params) (*Workload, error) {
	p = p.withDefaults(8192, 8).clampUnroll(10)
	n := roundUp(p.Size, p.Unroll)

	b := program.New("strmatch")
	loop := b.NewBlock("loop")
	tp := loop.Read(rPtr)
	dp := loop.Read(rPtr2)
	cnt := loop.Read(rCnt)
	end := loop.Read(rEnd)
	one := loop.Const(1)
	lit := loop.Const('a')
	for k := 0; k < p.Unroll; k++ {
		c := loop.Load1(tp, int64(k))
		cnt = loop.Op(isa.OpAdd, cnt, loop.Op(isa.OpTeq, c, lit))
		loop.Store1(dp, int64(k), loop.Op(isa.OpAdd, c, one))
	}
	step := loop.Const(int64(p.Unroll))
	tp2 := loop.Op(isa.OpAdd, tp, step)
	dp2 := loop.Op(isa.OpAdd, dp, step)
	loop.Write(rPtr, tp2)
	loop.Write(rPtr2, dp2)
	loop.Write(rCnt, cnt)
	more := loop.Op(isa.OpTltu, tp2, end)
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(rCnt)
	done.Store(done.Const(ResultBase), 0, res)
	done.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("byte scan/transform over %d bytes, unroll %d", n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	var want int64
	dst := make([]byte, n)
	for i := 0; i < n; i++ {
		c := byte('a' + splitmix64(&seed)%16)
		w.Mem.SetByte(DataBase+uint64(i), c)
		if c == 'a' {
			want++
		}
		dst[i] = c + 1
	}
	w.Regs[rPtr] = DataBase
	w.Regs[rPtr2] = DataBase2
	w.Regs[rEnd] = DataBase + int64(n)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		if err := checkU64(m, ResultBase, want, "strmatch count"); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if got := m.ByteAt(DataBase2 + uint64(i)); got != dst[i] {
				return fmt.Errorf("strmatch: dst[%d] = %d, want %d", i, got, dst[i])
			}
		}
		return nil
	}
	return w, nil
}

func roundUp(n, to int) int {
	if to <= 1 {
		return n
	}
	return ((n + to - 1) / to) * to
}
