package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func init() {
	register("matmul", "dense FP class (register-blocked matrix multiply)", buildMatmul)
}

// Registers used by matmul.
const (
	rI     = 1
	rJ     = 2
	rK     = 3
	rC     = 4
	rN     = 5
	rA     = 6
	rB     = 7
	rCBase = 8
)

// buildMatmul computes C = A×B for Size×Size int64 matrices with the k loop
// unrolled.  Stores to C never alias in-flight loads of A/B, so this is the
// high-ILP, speculation-friendly dense kernel.
func buildMatmul(p Params) (*Workload, error) {
	p = p.withDefaults(20, 4).clampUnroll(8)
	n := roundUp(p.Size, p.Unroll)

	b := program.New("matmul")

	// kbody: c += A[i][k..k+U-1] * B[k..k+U-1][j]
	kb := b.NewBlock("kbody")
	{
		i := kb.Read(rI)
		j := kb.Read(rJ)
		k := kb.Read(rK)
		c := kb.Read(rC)
		nn := kb.Read(rN)
		ab := kb.Read(rA)
		bb := kb.Read(rB)
		three := kb.Const(3)
		iN := kb.Op(isa.OpMul, i, nn)
		arow := kb.Op(isa.OpAdd, ab, kb.Op(isa.OpShl, kb.Op(isa.OpAdd, iN, k), three))
		kN := kb.Op(isa.OpMul, k, nn)
		bcol := kb.Op(isa.OpAdd, bb, kb.Op(isa.OpShl, kb.Op(isa.OpAdd, kN, j), three))
		var nstride program.Val
		if p.Unroll > 1 {
			nstride = kb.Op(isa.OpShl, nn, three)
		}
		bp := bcol
		for u := 0; u < p.Unroll; u++ {
			va := kb.Load(arow, int64(8*u))
			vb := kb.Load(bp, 0)
			c = kb.Op(isa.OpAdd, c, kb.Op(isa.OpMul, va, vb))
			if u != p.Unroll-1 {
				bp = kb.Op(isa.OpAdd, bp, nstride)
			}
		}
		k2 := kb.Op(isa.OpAdd, k, kb.Const(int64(p.Unroll)))
		kb.Write(rK, k2)
		kb.Write(rC, c)
		more := kb.Op(isa.OpTlt, k2, nn)
		kb.BranchIf(more, "kbody", "jnext")
	}

	// jnext: store C[i][j], advance j, reset k and c.
	jn := b.NewBlock("jnext")
	{
		i := jn.Read(rI)
		j := jn.Read(rJ)
		c := jn.Read(rC)
		nn := jn.Read(rN)
		cb := jn.Read(rCBase)
		three := jn.Const(3)
		zero := jn.Const(0)
		iN := jn.Op(isa.OpMul, i, nn)
		caddr := jn.Op(isa.OpAdd, cb, jn.Op(isa.OpShl, jn.Op(isa.OpAdd, iN, j), three))
		jn.Store(caddr, 0, c)
		j2 := jn.Op(isa.OpAdd, j, jn.Const(1))
		jn.Write(rJ, j2)
		jn.Write(rK, zero)
		jn.Write(rC, zero)
		more := jn.Op(isa.OpTlt, j2, nn)
		jn.BranchIf(more, "kbody", "inext")
	}

	// inext: advance i, reset j.
	in := b.NewBlock("inext")
	{
		i := in.Read(rI)
		nn := in.Read(rN)
		zero := in.Const(0)
		i2 := in.Op(isa.OpAdd, i, in.Const(1))
		in.Write(rI, i2)
		in.Write(rJ, zero)
		more := in.Op(isa.OpTlt, i2, nn)
		in.BranchIf(more, "kbody", "@halt")
	}

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d×%d int64 matrix multiply, k-unroll %d", n, n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	a := make([]int64, n*n)
	bm := make([]int64, n*n)
	for i := range a {
		a[i] = int64(splitmix64(&seed) % 100)
		bm[i] = int64(splitmix64(&seed) % 100)
		w.Mem.Write(DataBase+uint64(8*i), a[i], 8)
		w.Mem.Write(DataBase2+uint64(8*i), bm[i], 8)
	}
	w.Regs[rN] = int64(n)
	w.Regs[rA] = DataBase
	w.Regs[rB] = DataBase2
	w.Regs[rCBase] = DataBase3

	want := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var c int64
			for k := 0; k < n; k++ {
				c += a[i*n+k] * bm[k*n+j]
			}
			want[i*n+j] = c
		}
	}
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < n*n; i++ {
			if err := checkU64(m, DataBase3+uint64(8*i), want[i], "matmul C[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}
