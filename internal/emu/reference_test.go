package emu

// The reference emulator below is the golden model as it stood before the
// allocation-free rewrite in emu.go, kept verbatim apart from its renamed
// identifiers.  The differential tests run both on the same inputs and
// require every Result field, and every error string, to be equal.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ReferenceRun is the refEmulator as it was before the allocation-free rewrite:
// fresh slot arrays and closures per block, a per-byte last-writer map for
// the oracle.  It executes the program from the given initial state.  The initial
// registers and memory are not modified; the Result holds copies.  The
// reference keeps its oracle as a map from each dependent load to its
// store, returned beside a Result whose Oracle is nil.
func ReferenceRun(p *isa.Program, regs *[isa.NumRegs]int64, m *mem.Memory, opt Options) (*Result, map[core.DynRef]core.DynRef, error) {
	e := &refEmulator{
		p:   p,
		m:   m.Clone(),
		opt: opt,
	}
	if regs != nil {
		e.regs = *regs
	}
	if e.opt.MaxBlocks == 0 {
		e.opt.MaxBlocks = DefaultMaxBlocks
	}
	if opt.CollectOracle {
		e.oracle = make(map[core.DynRef]core.DynRef)
		e.lastWriter = make(map[uint64]refWriterInfo)
	}
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	res := &Result{
		Regs:   e.regs,
		Mem:    e.m,
		Blocks: e.blocks,
		Insts:  e.insts,
		Loads:  e.loads,
		Stores: e.stores,
	}
	res.DepDistance = e.depDist
	res.BlockTrace = e.trace
	res.StoreTrace = e.storeTrace
	return res, e.oracle, nil
}

type refWriterInfo struct {
	ref    core.DynRef
	memSeq int64 // dynamic memory-op sequence number of the writer
}

type refEmulator struct {
	p    *isa.Program
	m    *mem.Memory
	regs [isa.NumRegs]int64
	opt  Options

	blocks int64
	insts  int64
	loads  int64
	stores int64
	memSeq int64

	oracle     map[core.DynRef]core.DynRef
	storeTrace []StoreRecord
	lastWriter map[uint64]refWriterInfo
	depDist    [24]int64
	trace      []int
}

func (e *refEmulator) run() error {
	cur := e.p.Entry
	for {
		if e.blocks >= e.opt.MaxBlocks {
			return fmt.Errorf("emu: block budget %d exhausted at block %d (runaway loop?)", e.opt.MaxBlocks, cur)
		}
		b := e.p.Block(cur)
		if b == nil {
			return fmt.Errorf("emu: branch to nonexistent block %d", cur)
		}
		next, err := e.execBlock(b)
		if err != nil {
			return fmt.Errorf("emu: block %d %q (seq %d): %w", b.ID, b.Name, e.blocks, err)
		}
		if e.opt.TraceBlocks > 0 && len(e.trace) < e.opt.TraceBlocks {
			e.trace = append(e.trace, b.ID)
		}
		e.blocks++
		if next == isa.HaltTarget {
			return nil
		}
		cur = next
	}
}

// refOperand is one operand slot during a block execution.
type refOperand struct {
	val     int64
	present bool
	dups    int
}

func (e *refEmulator) execBlock(b *isa.Block) (next int, err error) {
	seq := e.blocks
	slots := make([][isa.NumSlots]refOperand, len(b.Insts))
	writes := make([]refOperand, len(b.Writes))
	var branch refOperand
	branchTaken := false

	deliver := func(ts []isa.Target, v int64) error {
		for _, t := range ts {
			switch t.Kind {
			case isa.TargetWrite:
				w := &writes[t.Index]
				if w.present {
					return fmt.Errorf("write slot %d received two values", t.Index)
				}
				w.val, w.present = v, true
			case isa.TargetInst:
				s := &slots[t.Index][t.Slot]
				if s.present {
					return fmt.Errorf("operand %s received two values", t)
				}
				s.val, s.present = v, true
			}
		}
		return nil
	}

	for _, r := range b.Reads {
		if err := deliver(r.Targets, e.regs[r.Reg]); err != nil {
			return 0, fmt.Errorf("read r%d: %w", r.Reg, err)
		}
	}

	for i := range b.Insts {
		in := &b.Insts[i]
		get := func(s isa.Slot) (int64, error) {
			o := &slots[i][s]
			if !o.present {
				return 0, fmt.Errorf("i%d (%s): operand %s missing", i, in.Op, s)
			}
			return o.val, nil
		}
		var a, bv, pv int64
		if in.NeedsSlot(isa.SlotA) {
			if a, err = get(isa.SlotA); err != nil {
				return 0, err
			}
		}
		if in.NeedsSlot(isa.SlotB) {
			if bv, err = get(isa.SlotB); err != nil {
				return 0, err
			}
		}
		if in.Pred != isa.PredNone {
			if pv, err = get(isa.SlotP); err != nil {
				return 0, err
			}
			if (in.Pred == isa.PredTrue) != (pv != 0) {
				continue // nullified: fires nothing
			}
		}
		e.insts++
		switch {
		case in.Op.IsLoad():
			addr := uint64(a + in.Imm)
			size := in.Op.MemSize()
			v := e.m.Read(addr, size)
			e.loads++
			if e.oracle != nil {
				e.recordLoad(core.DynRef{Seq: seq, LSID: in.LSID}, addr, size)
			}
			e.memSeq++
			if err := deliver(in.Targets, v); err != nil {
				return 0, fmt.Errorf("i%d: %w", i, err)
			}
		case in.Op.IsStore():
			addr := uint64(a + in.Imm)
			size := in.Op.MemSize()
			e.m.Write(addr, bv, size)
			e.stores++
			ref := core.DynRef{Seq: seq, LSID: in.LSID}
			if e.opt.TraceStores {
				e.storeTrace = append(e.storeTrace, StoreRecord{Ref: ref, Addr: addr, Data: bv, Size: size})
			}
			if e.oracle != nil {
				e.recordStore(ref, addr, size)
			}
			e.memSeq++
		case in.Op.IsBranch():
			t := in.Imm
			if in.Op == isa.OpBri {
				t = a
			}
			if branchTaken {
				return 0, fmt.Errorf("i%d: second branch fired", i)
			}
			branchTaken = true
			branch.val = t
		default:
			v := isa.Eval(in.Op, a, bv, in.Imm)
			if err := deliver(in.Targets, v); err != nil {
				return 0, fmt.Errorf("i%d: %w", i, err)
			}
		}
	}

	if !branchTaken {
		return 0, fmt.Errorf("no branch fired")
	}
	for w := range writes {
		if !writes[w].present {
			return 0, fmt.Errorf("write slot %d (r%d) received no value", w, b.Writes[w].Reg)
		}
	}
	for w := range writes {
		e.regs[b.Writes[w].Reg] = writes[w].val
	}
	next = int(branch.val)
	if next != isa.HaltTarget && (next < 0 || next >= len(e.p.Blocks)) {
		return 0, fmt.Errorf("branch to out-of-range block %d", next)
	}
	return next, nil
}

func (e *refEmulator) recordStore(ref core.DynRef, addr uint64, size int) {
	wi := refWriterInfo{ref: ref, memSeq: e.memSeq}
	for i := 0; i < size; i++ {
		e.lastWriter[addr+uint64(i)] = wi
	}
}

func (e *refEmulator) recordLoad(ref core.DynRef, addr uint64, size int) {
	var best refWriterInfo
	found := false
	for i := 0; i < size; i++ {
		if wi, ok := e.lastWriter[addr+uint64(i)]; ok {
			if !found || wi.memSeq > best.memSeq {
				best, found = wi, true
			}
		}
	}
	if !found {
		return
	}
	e.oracle[ref] = best.ref
	d := e.memSeq - best.memSeq
	bucket := 0
	for d > 1 && bucket < len(e.depDist)-1 {
		d >>= 1
		bucket++
	}
	e.depDist[bucket]++
}
