package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func init() {
	register("histogram", "gzip/bzip2 (data-dependent read-modify-write counting)", buildHistogram)
	register("bank", "high-conflict stress (random read-modify-write pairs)", buildBank)
	register("hashmap", "vortex (hashed probe and update)", buildHashmap)
}

// Registers shared by the random-access kernels.
const (
	rIdxP   = 2
	rBase   = 6
	rIdxEnd = 7
)

// lcg emits the in-ISA linear congruential PRNG step mirrored by lcgNext.
// (Used by kernels whose randomness must be computed in-loop, e.g. treewalk.)
func lcg(blk *program.BlockBuilder, x program.Val) program.Val {
	return blk.Op(isa.OpAdd, blk.Op(isa.OpMul, x, blk.Const(lcgMul)), blk.Const(lcgAdd))
}

// buildHistogram increments one of 64 counters per element of a pre-built
// random index array (GUPS-style).  Index loads are independent streaming
// loads, so counter loads race far ahead of older counter stores whose data
// is still being computed — the dependence-speculation stress the paper
// targets.  It is also the worst case for the store-set predictor: every
// dynamic conflict involves the *same* static load/store pair, so the
// predictor merges everything into one set and serialises all counter
// accesses, while DSRE pays only for the true dynamic conflicts.
func buildHistogram(p Params) (*Workload, error) {
	p = p.withDefaults(4096, 4).clampUnroll(8)
	const bins = 64
	iters := roundUp(p.Size, p.Unroll)

	b := program.New("histogram")
	loop := b.NewBlock("loop")
	ip := loop.Read(rIdxP)
	base := loop.Read(rBase)
	end := loop.Read(rIdxEnd)
	one := loop.Const(1)
	three := loop.Const(3)
	for k := 0; k < p.Unroll; k++ {
		bin := loop.Load(ip, int64(8*k))
		addr := loop.Op(isa.OpAdd, base, loop.Op(isa.OpShl, bin, three))
		c := loop.Load(addr, 0)
		loop.Store(addr, 0, loop.Op(isa.OpAdd, c, one))
	}
	ip2 := loop.Op(isa.OpAdd, ip, loop.Const(int64(8*p.Unroll)))
	loop.Write(rIdxP, ip2)
	more := loop.Op(isa.OpTltu, ip2, end)
	loop.BranchIf(more, "loop", "@halt")

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d random increments over %d bins, unroll %d", iters, bins, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	var want [bins]int64
	for i := 0; i < iters; i++ {
		bin := int64(splitmix64(&seed) % bins)
		w.Mem.Write(DataBase2+uint64(8*i), bin, 8)
		want[bin]++
	}
	w.Regs[rIdxP] = DataBase2
	w.Regs[rBase] = DataBase
	w.Regs[rIdxEnd] = DataBase2 + int64(8*iters)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < bins; i++ {
			if err := checkU64(m, DataBase+uint64(8*i), want[i], "histogram[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// buildBank performs random transfers between accounts driven by a
// pre-built (from, to) index array: two read-modify-write pairs per
// iteration at uncorrelated addresses.
func buildBank(p Params) (*Workload, error) {
	p = p.withDefaults(4096, 2).clampUnroll(3)
	const accounts = 256
	iters := roundUp(p.Size, p.Unroll)

	b := program.New("bank")
	loop := b.NewBlock("loop")
	ip := loop.Read(rIdxP)
	base := loop.Read(rBase)
	end := loop.Read(rIdxEnd)
	three := loop.Const(3)
	amtMask := loop.Const(255)
	for k := 0; k < p.Unroll; k++ {
		from := loop.Load(ip, int64(16*k))
		to := loop.Load(ip, int64(16*k)+8)
		amt := loop.Op(isa.OpAnd, loop.Op(isa.OpAdd, from, loop.Op(isa.OpMul, to, loop.Const(31))), amtMask)
		fa := loop.Op(isa.OpAdd, base, loop.Op(isa.OpShl, from, three))
		ta := loop.Op(isa.OpAdd, base, loop.Op(isa.OpShl, to, three))
		bf := loop.Load(fa, 0)
		loop.Store(fa, 0, loop.Op(isa.OpSub, bf, amt))
		bt := loop.Load(ta, 0)
		loop.Store(ta, 0, loop.Op(isa.OpAdd, bt, amt))
	}
	ip2 := loop.Op(isa.OpAdd, ip, loop.Const(int64(16*p.Unroll)))
	loop.Write(rIdxP, ip2)
	more := loop.Op(isa.OpTltu, ip2, end)
	loop.BranchIf(more, "loop", "@halt")

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d random transfers across %d accounts, unroll %d", iters, accounts, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	ref := make([]int64, accounts)
	for i := range ref {
		ref[i] = int64(splitmix64(&seed) % 10000)
	}
	for i, v := range ref {
		w.Mem.Write(DataBase+uint64(8*i), v, 8)
	}
	for i := 0; i < iters; i++ {
		from := int64(splitmix64(&seed) % accounts)
		to := int64(splitmix64(&seed) % accounts)
		w.Mem.Write(DataBase2+uint64(16*i), from, 8)
		w.Mem.Write(DataBase2+uint64(16*i)+8, to, 8)
		amt := (from + to*31) & 255
		ref[from] -= amt
		ref[to] += amt
	}
	w.Regs[rIdxP] = DataBase2
	w.Regs[rBase] = DataBase
	w.Regs[rIdxEnd] = DataBase2 + int64(16*iters)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < accounts; i++ {
			if err := checkU64(m, DataBase+uint64(8*i), ref[i], "bank[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// buildHashmap probes and updates a direct-mapped hash table of key/value
// pairs, with keys drawn from a pre-built array over a small key space so
// slots are frequently revisited while in flight.  A matching slot
// increments the value, a mismatch evicts it; the selects exercise
// complementary predicated movs under memory speculation.
func buildHashmap(p Params) (*Workload, error) {
	p = p.withDefaults(4096, 2).clampUnroll(4)
	const (
		slots    = 4096
		keySpace = 128
		hashMul  = 2654435761
	)
	iters := roundUp(p.Size, p.Unroll)

	b := program.New("hashmap")
	loop := b.NewBlock("loop")
	ip := loop.Read(rIdxP)
	base := loop.Read(rBase)
	end := loop.Read(rIdxEnd)
	one := loop.Const(1)
	hmul := loop.Const(hashMul)
	smask := loop.Const(slots - 1)
	four := loop.Const(4)
	for k := 0; k < p.Unroll; k++ {
		key := loop.Load(ip, int64(8*k))
		h := loop.Op(isa.OpAnd, loop.Op(isa.OpMul, key, hmul), smask)
		slot := loop.Op(isa.OpAdd, base, loop.Op(isa.OpShl, h, four))
		kv := loop.Load(slot, 0)
		vv := loop.Load(slot, 8)
		match := loop.Op(isa.OpTeq, kv, key)
		newv := loop.Select(match, loop.Op(isa.OpAdd, vv, one), one)
		loop.Store(slot, 0, key)
		loop.Store(slot, 8, newv)
	}
	ip2 := loop.Op(isa.OpAdd, ip, loop.Const(int64(8*p.Unroll)))
	loop.Write(rIdxP, ip2)
	more := loop.Op(isa.OpTltu, ip2, end)
	loop.BranchIf(more, "loop", "@halt")

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	w := &Workload{Description: fmt.Sprintf("%d probes of a %d-slot table over %d keys, unroll %d", iters, slots, keySpace, p.Unroll), Params: p, Program: prog, Mem: mem.New()}
	seed := p.Seed
	type slot struct{ key, val int64 }
	ref := make([]slot, slots)
	for i := 0; i < iters; i++ {
		key := int64(splitmix64(&seed) % keySpace)
		w.Mem.Write(DataBase2+uint64(8*i), key, 8)
		h := uint64(key*hashMul) & (slots - 1)
		if ref[h].key == key {
			ref[h].val++
		} else {
			ref[h] = slot{key: key, val: 1}
		}
	}
	w.Regs[rIdxP] = DataBase2
	w.Regs[rBase] = DataBase
	w.Regs[rIdxEnd] = DataBase2 + int64(8*iters)
	w.Check = func(regs *[isa.NumRegs]int64, m *mem.Memory) error {
		for i := 0; i < slots; i++ {
			a := DataBase + uint64(16*i)
			if err := checkU64(m, a, ref[i].key, "hashmap key[%d]", i); err != nil {
				return err
			}
			if err := checkU64(m, a+8, ref[i].val, "hashmap val[%d]", i); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}
