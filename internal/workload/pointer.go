package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func init() {
	register("listsum", "mcf (pointer-chasing list walk with node updates)", buildListsum)
	register("treewalk", "twolf (binary-tree search with path counters)", buildTreewalk)
}

// Registers used by the pointer kernels.
const (
	rNode = 1
	rSum  = 2
	rKey  = 2 // treewalk reuses the accumulator slot for the search key
	rX    = 3
	rLeft = 4
	rRoot = 6
	rMask = 7
)

// buildListsum walks a linked list of Size nodes laid out in shuffled order,
// summing and doubling each node's value.  Unrolled iterations chase several
// links per block with nil-safe predicated stores: once the walk reaches the
// null terminator, further loads read address zero (which stays zero) and
// stores are nullified.  The load→load chains serialise conservative
// policies that wait on store addresses derived from those loads.
func buildListsum(p Params) (*Workload, error) {
	p = p.withDefaults(4096, 4).clampUnroll(8)
	n := p.Size

	b := program.New("listsum")
	loop := b.NewBlock("loop")
	node := loop.Read(rNode)
	sum := loop.Read(rSum)
	zero := loop.Const(0)
	for k := 0; k < p.Unroll; k++ {
		alive := loop.Op(isa.OpTne, node, zero)
		v := loop.Load(node, 8)
		sum = loop.Op(isa.OpAdd, sum, v)
		loop.StoreIf(alive, true, node, 8, loop.Op(isa.OpAdd, v, v))
		node = loop.Load(node, 0)
	}
	loop.Write(rNode, node)
	loop.Write(rSum, sum)
	more := loop.Op(isa.OpTne, node, zero)
	loop.BranchIf(more, "loop", "done")

	done := b.NewBlock("done")
	res := done.Read(rSum)
	done.Store(done.Const(ResultBase), 0, res)
	done.Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("walk of a %d-node shuffled list, unroll %d", n, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed

	// Place node i of the walk at a shuffled physical slot.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix64(&seed) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	addr := func(i int) int64 {
		if i >= n {
			return 0
		}
		return DataBase + int64(16*perm[i])
	}
	var want int64
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		vals[i] = int64(splitmix64(&seed) % 100000)
		w.Mem.Write(uint64(addr(i)), addr(i+1), 8)
		w.Mem.Write(uint64(addr(i))+8, vals[i], 8)
		want += vals[i]
	}
	w.Regs[rNode] = addr(0)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		if err := checkU64(m, ResultBase, want, "listsum total"); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := checkU64(m, uint64(addr(i))+8, 2*vals[i], "listsum node %d", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// treewalk node layout: key@0, left@8, right@16, count@24 (32 bytes).
const (
	tnKey   = 0
	tnLeft  = 8
	tnRight = 16
	tnCount = 24
	tnSize  = 32
)

// buildTreewalk searches a balanced BST of Size (power-of-two-rounded) keys
// for Size/8 random keys, incrementing a visit counter on every node along
// each path.  Paths share prefixes, so counter updates near the root alias
// with later searches' counter loads while both are in flight.
func buildTreewalk(p Params) (*Workload, error) {
	p = p.withDefaults(2048, 1)
	n := nextPow2(p.Size)
	searches := n / 4
	if searches < 8 {
		searches = 8
	}

	b := program.New("treewalk")

	// Entry block: pick the next key, or halt when the search budget is out.
	next := b.NewBlock("next")
	{
		x := next.Read(rX)
		rem := next.Read(rLeft)
		root := next.Read(rRoot)
		mask := next.Read(rMask)
		x2 := lcg(next, x)
		key := next.Op(isa.OpAnd, next.Op(isa.OpShr, x2, next.Const(33)), mask)
		rem2 := next.Op(isa.OpSub, rem, next.Const(1))
		done := next.Op(isa.OpTle, rem2, next.Const(0))
		next.Write(rX, x2)
		next.Write(rLeft, rem2)
		next.Write(rKey, key)
		next.Write(rNode, root)
		next.BranchIf(done, "@halt", "step")
	}

	// Step block: one tree level — bump the visit counter, descend.
	step := b.NewBlock("step")
	{
		node := step.Read(rNode)
		key := step.Read(rKey)
		zero := step.Const(0)
		k := step.Load(node, tnKey)
		c := step.Load(node, tnCount)
		step.Store(node, tnCount, step.Op(isa.OpAdd, c, step.Const(1)))
		l := step.Load(node, tnLeft)
		r := step.Load(node, tnRight)
		goLeft := step.Op(isa.OpTlt, key, k)
		found := step.Op(isa.OpTeq, key, k)
		child := step.Select(goLeft, l, r)
		nxt := step.Select(found, zero, child)
		atEnd := step.Op(isa.OpTeq, nxt, zero)
		step.Write(rNode, nxt)
		step.BranchIf(atEnd, "next", "step")
	}

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d BST searches over %d keys with path counters", searches, n), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed

	// Build a balanced BST over keys 0..n-1 at shuffled physical slots.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix64(&seed) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	nodeAddr := make([]int64, n) // by key
	slot := 0
	var place func(lo, hi int) int64
	place = func(lo, hi int) int64 {
		if lo > hi {
			return 0
		}
		mid := (lo + hi) / 2
		a := DataBase + int64(tnSize*perm[slot])
		slot++
		nodeAddr[mid] = a
		l := place(lo, mid-1)
		r := place(mid+1, hi)
		w.Mem.Write(uint64(a)+tnKey, int64(mid), 8)
		w.Mem.Write(uint64(a)+tnLeft, l, 8)
		w.Mem.Write(uint64(a)+tnRight, r, 8)
		return a
	}
	root := place(0, n-1)

	w.Regs[rX] = int64(p.Seed)
	w.Regs[rLeft] = int64(searches) + 1
	w.Regs[rRoot] = root
	w.Regs[rMask] = int64(n - 1)

	// Reference walk.
	counts := make(map[int64]int64)
	xr := int64(p.Seed)
	for s := 0; s < searches; s++ {
		xr = lcgNext(xr)
		key := int64(uint64(xr) >> 33 & uint64(n-1))
		a := root
		for a != 0 {
			counts[a]++
			k := int64(uint64(nodeKeyOf(w.Mem, a)))
			if key == k {
				break
			}
			if key < k {
				a = w.Mem.Read(uint64(a)+tnLeft, 8)
			} else {
				a = w.Mem.Read(uint64(a)+tnRight, 8)
			}
		}
	}
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for _, a := range nodeAddr {
			if err := checkU64(m, uint64(a)+tnCount, counts[a], "treewalk count @%#x", int(a)); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

func nodeKeyOf(m *mem.Memory, addr int64) int64 { return m.Read(uint64(addr)+tnKey, 8) }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
