package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func init() {
	register("queue", "perlbmk/gap (ring buffer with head/tail pointers in memory)", buildQueue)
	register("spmv", "ammp/art (CSR sparse matrix-vector gather)", buildSPMV)
	register("sort", "bzip2 (odd-even transposition sort, in-place compare-swap)", buildSort)
}

// Queue memory layout.
const (
	qHeadCell = 0x9000 // consumer index
	qTailCell = 0x9008 // producer index
	qBufSlots = 256    // power of two
)

// buildQueue drives a ring buffer whose head and tail indices live in
// memory: every iteration pushes one element and pops one element, so four
// of its six memory operations are read-modify-writes of the same two
// cells, and popped data was pushed (and forwarded) a few iterations
// earlier.  This is the software-queue pattern interpreters and allocators
// produce, and the richest source of short-distance dependences in the
// suite.  mem[ResultBase] = checksum of popped values.
func buildQueue(p Params) (*Workload, error) {
	p = p.withDefaults(4096, 2).clampUnroll(4)
	iters := roundUp(p.Size, p.Unroll)
	const prefill = 16

	b := program.New("queue")
	loop := b.NewBlock("loop")
	it := loop.Read(rIter2)
	sum := loop.Read(rAcc)
	headp := loop.Const(qHeadCell)
	tailp := loop.Const(qTailCell)
	buf := loop.Read(rBase2)
	mask := loop.Const(qBufSlots - 1)
	three := loop.Const(3)
	one := loop.Const(1)
	for k := 0; k < p.Unroll; k++ {
		// Push: buf[tail & mask] = tail*3 (a value derived from the index),
		// tail++ — both through memory.
		t := loop.Load(tailp, 0)
		slot := loop.Op(isa.OpAdd, buf, loop.Op(isa.OpShl, loop.Op(isa.OpAnd, t, mask), three))
		loop.Store(slot, 0, loop.Op(isa.OpMul, t, three))
		loop.Store(tailp, 0, loop.Op(isa.OpAdd, t, one))
		// Pop: v = buf[head & mask], head++.
		h := loop.Load(headp, 0)
		pslot := loop.Op(isa.OpAdd, buf, loop.Op(isa.OpShl, loop.Op(isa.OpAnd, h, mask), three))
		v := loop.Load(pslot, 0)
		loop.Store(headp, 0, loop.Op(isa.OpAdd, h, one))
		sum = loop.Op(isa.OpAdd, sum, v)
	}
	it2 := loop.Op(isa.OpSub, it, loop.Const(int64(p.Unroll)))
	loop.Write(rIter2, it2)
	loop.Write(rAcc, sum)
	more := loop.Op(isa.OpTgt, it2, loop.Const(0))
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(rAcc)
	done.Store(done.Const(ResultBase), 0, res)
	done.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d push/pop pairs through a %d-slot in-memory ring, unroll %d", iters, qBufSlots, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	// Pre-fill so pops always find data: head starts at 0, tail at prefill.
	ring := make([]int64, qBufSlots)
	seed := p.Seed
	for i := 0; i < prefill; i++ {
		ring[i] = int64(splitmix64(&seed) % 100000)
		w.Mem.Write(DataBase+uint64(8*i), ring[i], 8)
	}
	w.Mem.Write(qHeadCell, 0, 8)
	w.Mem.Write(qTailCell, prefill, 8)
	w.Regs[rIter2] = int64(iters)
	w.Regs[rBase2] = DataBase

	// Go reference replay.
	head, tail := int64(0), int64(prefill)
	var want int64
	for i := 0; i < iters; i++ {
		ring[tail&(qBufSlots-1)] = tail * 3
		tail++
		want += ring[head&(qBufSlots-1)]
		head++
	}
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		if err := checkU64(m, ResultBase, want, "queue checksum"); err != nil {
			return err
		}
		if err := checkU64(m, qHeadCell, head, "queue head"); err != nil {
			return err
		}
		return checkU64(m, qTailCell, tail, "queue tail")
	}
	return w, nil
}

// Registers for the kernels in this file (distinct from other files' consts).
const (
	rIter2 = 1
	rBase2 = 6
	// spmv
	rRow   = 1
	rAcc2  = 2
	rNnzP  = 3
	rColP  = 4
	rValP  = 5
	rXBase = 6
	rYBase = 7
	rNRows = 8
	// sort
	rPass  = 2
	rABase = 6
)

// buildSPMV computes y = A·x for a CSR sparse matrix with a fixed number of
// non-zeros per row: indirect gathers of x through the column-index array.
// No store→load aliasing — a pure memory-level-parallelism kernel where all
// speculation schemes should tie and conservative loses badly.
// Size is the number of rows.
func buildSPMV(p Params) (*Workload, error) {
	p = p.withDefaults(1024, 4).clampUnroll(6)
	const nnzPerRow = 8
	rows := p.Size
	cols := nextPow2(rows)

	// The row loop processes nnzPerRow entries per block iteration; with
	// unroll u the inner loop is u gathers.  nnzPerRow must divide evenly.
	u := p.Unroll
	for nnzPerRow%u != 0 {
		u--
	}
	p.Unroll = u

	b := program.New("spmv")

	inner := b.NewBlock("inner")
	{
		acc := inner.Read(rAcc2)
		cp := inner.Read(rColP)
		vp := inner.Read(rValP)
		xb := inner.Read(rXBase)
		three := inner.Const(3)
		for k := 0; k < u; k++ {
			col := inner.Load(cp, int64(8*k))
			xv := inner.Load(inner.Op(isa.OpAdd, xb, inner.Op(isa.OpShl, col, three)), 0)
			av := inner.Load(vp, int64(8*k))
			acc = inner.Op(isa.OpAdd, acc, inner.Op(isa.OpMul, av, xv))
		}
		step := inner.Const(int64(8 * u))
		cp2 := inner.Op(isa.OpAdd, cp, step)
		vp2 := inner.Op(isa.OpAdd, vp, step)
		nnz := inner.Read(rNnzP) // remaining nnz in this row
		nnz2 := inner.Op(isa.OpSub, nnz, inner.Const(int64(u)))
		inner.Write(rColP, cp2)
		inner.Write(rValP, vp2)
		inner.Write(rAcc2, acc)
		inner.Write(rNnzP, nnz2)
		more := inner.Op(isa.OpTgt, nnz2, inner.Const(0))
		inner.BranchIf(more, "inner", "rownext")
	}

	rn := b.NewBlock("rownext")
	{
		row := rn.Read(rRow)
		acc := rn.Read(rAcc2)
		yb := rn.Read(rYBase)
		n := rn.Read(rNRows)
		three := rn.Const(3)
		rn.Store(rn.Op(isa.OpAdd, yb, rn.Op(isa.OpShl, row, three)), 0, acc)
		row2 := rn.Op(isa.OpAdd, row, rn.Const(1))
		rn.Write(rRow, row2)
		rn.Write(rAcc2, rn.Const(0))
		rn.Write(rNnzP, rn.Const(nnzPerRow))
		more := rn.Op(isa.OpTlt, row2, n)
		rn.BranchIf(more, "inner", "@halt")
	}

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d-row CSR SpMV, %d nnz/row, inner unroll %d", rows, nnzPerRow, u), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	x := make([]int64, cols)
	for i := range x {
		x[i] = int64(splitmix64(&seed) % 1000)
		w.Mem.Write(DataBase+uint64(8*i), x[i], 8) // x vector
	}
	want := make([]int64, rows)
	for r := 0; r < rows; r++ {
		for j := 0; j < nnzPerRow; j++ {
			idx := r*nnzPerRow + j
			col := int64(splitmix64(&seed) % uint64(cols))
			val := int64(splitmix64(&seed) % 100)
			w.Mem.Write(DataBase2+uint64(8*idx), col, 8) // column indices
			w.Mem.Write(DataBase3+uint64(8*idx), val, 8) // values
			want[r] += val * x[col]
		}
	}
	const yBase = 0xC00000
	w.Regs[rRow] = 0
	w.Regs[rNnzP] = nnzPerRow
	w.Regs[rColP] = DataBase2
	w.Regs[rValP] = DataBase3
	w.Regs[rXBase] = DataBase
	w.Regs[rYBase] = yBase
	w.Regs[rNRows] = int64(rows)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for r := 0; r < rows; r++ {
			if err := checkU64(m, yBase+uint64(8*r), want[r], "spmv y[%d]", r); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// buildSort runs odd-even transposition sort over a small array: each pass
// compare-and-swaps adjacent pairs in place using selects, so consecutive
// passes' loads alias the previous pass's stores at unit distance — dense,
// fully predictable conflicts (the store-set-friendly regime).
// Size is the element count (kept small; the algorithm is O(n²)).
func buildSort(p Params) (*Workload, error) {
	p = p.withDefaults(96, 4).clampUnroll(6)
	n := p.Size
	if n < 4 {
		n = 4
	}
	if n&1 == 1 {
		n++
	}
	passes := n

	b := program.New("sort")

	// Two blocks: even pass (pairs 0-1, 2-3, ...) and odd pass (1-2, 3-4, ...).
	// Each block walks its pairs with an in-register pointer, unrolled.
	for bi, name := range []string{"even", "odd"} {
		blk := b.NewBlock(name)
		ptr := blk.Read(rPtr)
		pass := blk.Read(rPass)
		base := blk.Read(rABase)
		for k := 0; k < p.Unroll; k++ {
			off := int64(16 * k)
			a := blk.Load(ptr, off)
			c := blk.Load(ptr, off+8)
			swap := blk.Op(isa.OpTgt, a, c)
			lo := blk.Select(swap, c, a)
			hi := blk.Select(swap, a, c)
			blk.Store(ptr, off, lo)
			blk.Store(ptr, off+8, hi)
		}
		ptr2 := blk.Op(isa.OpAdd, ptr, blk.Const(int64(16*p.Unroll)))
		blk.Write(rPtr, ptr2)
		// End of this pass?  The even pass covers n/2 pairs, the odd n/2-1.
		pairs := n / 2
		other := "odd"
		otherStart := int64(8) // odd pass starts at element 1
		if bi == 1 {
			pairs = n/2 - 1
			other = "even"
			otherStart = 0
		}
		endOff := blk.Op(isa.OpAdd, base, blk.Const(otherStartless(bi)+int64(16*pairs)))
		morePairs := blk.Op(isa.OpTltu, ptr2, endOff)

		// Pass accounting happens in a separate epilogue block to keep this
		// one simple: branch back for more pairs, else to the epilogue.
		blk.Write(rPass, pass) // carried through
		blk.Write(rABase, base)
		blk.BranchIf(morePairs, name, name+"done")
		_ = other
		_ = otherStart
	}

	for bi, name := range []string{"evendone", "odddone"} {
		blk := b.NewBlock(name)
		pass := blk.Read(rPass)
		base := blk.Read(rABase)
		pass2 := blk.Op(isa.OpSub, pass, blk.Const(1))
		blk.Write(rPass, pass2)
		blk.Write(rABase, base)
		next := "odd"
		nextStart := int64(8)
		if bi == 1 {
			next = "even"
			nextStart = 0
		}
		blk.Write(rPtr, blk.Op(isa.OpAdd, base, blk.Const(nextStart)))
		more := blk.Op(isa.OpTgt, pass2, blk.Const(0))
		blk.BranchIf(more, next, "@halt")
	}

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("odd-even transposition sort of %d elements (%d passes), unroll %d", n, passes, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	ref := make([]int64, n)
	for i := range ref {
		ref[i] = int64(splitmix64(&seed) % 100000)
		w.Mem.Write(DataBase+uint64(8*i), ref[i], 8)
	}
	w.Regs[rPass] = int64(passes)
	w.Regs[rABase] = DataBase
	w.Regs[rPtr] = DataBase

	// Replay the exact pass structure (the kernel may not fully sort if the
	// pair count is not a multiple of the unroll; mirror its behaviour).
	evenPairs := roundUp(n/2, p.Unroll)
	oddPairs := roundUp(n/2-1, p.Unroll)
	at := func(i int) int64 {
		if i < len(ref) {
			return ref[i]
		}
		return 0
	}
	set := func(i int, v int64) {
		if i < len(ref) {
			ref[i] = v
		}
	}
	overflow := make(map[int]int64) // cells past the array the kernel touches
	get := func(i int) int64 {
		if i < n {
			return at(i)
		}
		return overflow[i]
	}
	put := func(i int, v int64) {
		if i < n {
			set(i, v)
		} else {
			overflow[i] = v
		}
	}
	for pass := passes; pass > 0; pass-- {
		start, pairs := 0, evenPairs
		if (passes-pass)%2 == 1 {
			start, pairs = 1, oddPairs
		}
		for pr := 0; pr < pairs; pr++ {
			i := start + 2*pr
			a, c := get(i), get(i+1)
			if a > c {
				put(i, c)
				put(i+1, a)
			}
		}
	}
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < n; i++ {
			if err := checkU64(m, DataBase+uint64(8*i), ref[i], "sort[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// otherStartless returns the starting byte offset of the pass bi runs.
func otherStartless(bi int) int64 {
	if bi == 1 {
		return 8
	}
	return 0
}
