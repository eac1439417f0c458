// Package emu is the architectural emulator for EDGE programs: a simple
// in-order golden model that defines the correct final state every cycle
// simulator run must reproduce, regardless of speculation and recovery
// scheme.
//
// Besides architectural results, the emulator produces two artifacts the
// evaluation needs:
//
//   - the perfect-oracle table (Oracle): for each dynamic load, the dynamic
//     store (if any) that most recently wrote an overlapping byte.  The
//     load/store queue reads it directly under the oracle issue policy,
//     implementing the paper's "perfect oracle directing the issue of
//     loads";
//   - a dynamic profile (instruction mix, store→load dependence distance
//     histogram) used to characterise workloads.
package emu

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Options configures a Run.
type Options struct {
	// MaxBlocks bounds execution; exceeding it is an error (runaway loop).
	// Zero means DefaultMaxBlocks.
	MaxBlocks int64
	// CollectOracle records, for each dynamic load, its most recent
	// conflicting dynamic store.
	CollectOracle bool
	// TraceBlocks records the committed block-ID sequence (for debugging
	// simulator divergence).  Zero disables; otherwise at most TraceBlocks
	// entries are kept.
	TraceBlocks int
	// TraceStores records every dynamic store's final address and data
	// — the golden reference used by simulator tests to validate each
	// drained store at its source.
	TraceStores bool
}

// StoreRecord is one dynamic store in the golden trace.
type StoreRecord struct {
	Ref  core.DynRef
	Addr uint64
	Data int64
	Size int
}

// DefaultMaxBlocks bounds emulation when Options.MaxBlocks is zero.
const DefaultMaxBlocks = 4 << 20

// Result is the outcome of an emulation.
type Result struct {
	Regs   [isa.NumRegs]int64
	Mem    *mem.Memory
	Blocks int64 // committed (executed) blocks
	Insts  int64 // fired instructions, the IPC numerator used everywhere
	Loads  int64
	Stores int64

	// Oracle is the perfect-oracle dependence table.  Populated when
	// Options.CollectOracle.
	Oracle *Oracle

	// DepDistance histograms store→load dependence distances, measured in
	// dynamic memory operations between the store and the dependent load.
	// Bucket i counts distances in [2^i, 2^(i+1)).  Populated when
	// Options.CollectOracle.
	DepDistance [24]int64

	// BlockTrace is the committed block-ID sequence, when requested.
	BlockTrace []int

	// StoreTrace is the golden store trace in execution order, when
	// requested.
	StoreTrace []StoreRecord
}

// DependentLoads returns the number of dynamic loads that read a byte an
// earlier store wrote, the sum of DepDistance.  In a valid program each is
// one oracle entry.
func (r *Result) DependentLoads() int64 {
	var n int64
	for _, c := range r.DepDistance {
		n += c
	}
	return n
}

// Run executes the program from the given initial state.  The initial
// registers and memory are not modified; the Result holds copies.
func Run(p *isa.Program, regs *[isa.NumRegs]int64, m *mem.Memory, opt Options) (*Result, error) {
	e := &emulator{
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
		e.oracle = &Oracle{}
		e.shadow = &shadow{pages: make(map[uint64]*shadowPage)}
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	res := &Result{
		Regs:   e.regs,
		Mem:    e.m,
		Blocks: e.blocks,
		Insts:  e.insts,
		Loads:  e.loads,
		Stores: e.stores,
	}
	if e.oracle != nil {
		e.oracle.stores = e.shadow.writers
		res.Oracle = e.oracle
	}
	res.DepDistance = e.depDist
	res.BlockTrace = e.trace
	res.StoreTrace = e.storeTrace
	return res, nil
}

type writerInfo struct {
	ref    core.DynRef
	memSeq int64 // dynamic memory-op sequence number of the writer
}

type emulator struct {
	p    *isa.Program
	m    *mem.Memory
	regs [isa.NumRegs]int64
	opt  Options

	blocks int64
	insts  int64
	loads  int64
	stores int64
	memSeq int64

	// Per-block operand and write slots.  The backing arrays are reused
	// by every block and grow to the largest block seen; slots and writes
	// are the executing block's views of them, cut to its length so a
	// target past the block still fails its bounds check.  An operand is
	// present when its stamp equals gen, which begin bumps once per
	// block, so nothing is cleared between blocks.
	slotBuf  [][isa.NumSlots]operand
	writeBuf []operand
	slots    [][isa.NumSlots]operand
	writes   []operand
	gen      uint64

	oracle     *Oracle
	storeTrace []StoreRecord
	shadow     *shadow
	depDist    [24]int64
	trace      []int
}

func (e *emulator) run() error {
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

// operand is one operand slot during a block execution; it holds a value
// for the executing block only when gen equals the emulator's stamp.
type operand struct {
	val int64
	gen uint64
}

// begin stamps a new block generation and points the slot views at
// scratch sized for b.  Fresh scratch is zeroed, and the stamp is never
// zero, so a grown array starts with every slot absent.
func (e *emulator) begin(b *isa.Block) {
	e.gen++
	if n := len(b.Insts); n > len(e.slotBuf) {
		e.slotBuf = make([][isa.NumSlots]operand, n)
	}
	if n := len(b.Writes); n > len(e.writeBuf) {
		e.writeBuf = make([]operand, n)
	}
	e.slots = e.slotBuf[:len(b.Insts)]
	e.writes = e.writeBuf[:len(b.Writes)]
}

// deliver sends v to every target, enforcing that each operand and write
// slot receives at most one value per block.
func (e *emulator) deliver(ts []isa.Target, v int64) error {
	for _, t := range ts {
		switch t.Kind {
		case isa.TargetWrite:
			w := &e.writes[t.Index]
			if w.gen == e.gen {
				return fmt.Errorf("write slot %d received two values", t.Index)
			}
			w.val, w.gen = v, e.gen
		case isa.TargetInst:
			s := &e.slots[t.Index][t.Slot]
			if s.gen == e.gen {
				return fmt.Errorf("operand %s received two values", t)
			}
			s.val, s.gen = v, e.gen
		}
	}
	return nil
}

// get returns instruction i's operand in slot s, or an error when no
// producer delivered it.
func (e *emulator) get(i int, in *isa.Inst, s isa.Slot) (int64, error) {
	o := &e.slots[i][s]
	if o.gen != e.gen {
		return 0, fmt.Errorf("i%d (%s): operand %s missing", i, in.Op, s)
	}
	return o.val, nil
}

func (e *emulator) execBlock(b *isa.Block) (next int, err error) {
	seq := e.blocks
	e.begin(b)
	if e.oracle != nil {
		if err := e.oracle.begin(); err != nil {
			return 0, err
		}
	}
	var target int64
	branchTaken := false

	for _, r := range b.Reads {
		if err := e.deliver(r.Targets, e.regs[r.Reg]); err != nil {
			return 0, fmt.Errorf("read r%d: %w", r.Reg, err)
		}
	}

	for i := range b.Insts {
		in := &b.Insts[i]
		var a, bv, pv int64
		if nd := in.Op.NumDataOperands(); nd >= 1 {
			if a, err = e.get(i, in, isa.SlotA); err != nil {
				return 0, err
			}
			if nd >= 2 {
				if bv, err = e.get(i, in, isa.SlotB); err != nil {
					return 0, err
				}
			}
		}
		if in.Pred != isa.PredNone {
			if pv, err = e.get(i, in, isa.SlotP); err != nil {
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
				e.recordLoad(in.LSID, addr, size)
			}
			e.memSeq++
			if err := e.deliver(in.Targets, v); err != nil {
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
				if err := e.recordStore(ref, addr, size); err != nil {
					return 0, err
				}
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
			target = t
		default:
			v := isa.Eval(in.Op, a, bv, in.Imm)
			if err := e.deliver(in.Targets, v); err != nil {
				return 0, fmt.Errorf("i%d: %w", i, err)
			}
		}
	}

	if !branchTaken {
		return 0, fmt.Errorf("no branch fired")
	}
	for w := range e.writes {
		if e.writes[w].gen != e.gen {
			return 0, fmt.Errorf("write slot %d (r%d) received no value", w, b.Writes[w].Reg)
		}
	}
	for w := range e.writes {
		e.regs[b.Writes[w].Reg] = e.writes[w].val
	}
	next = int(target)
	if next != isa.HaltTarget && (next < 0 || next >= len(e.p.Blocks)) {
		return 0, fmt.Errorf("branch to out-of-range block %d", next)
	}
	return next, nil
}

func (e *emulator) recordStore(ref core.DynRef, addr uint64, size int) error {
	return e.shadow.store(addr, size, writerInfo{ref: ref, memSeq: e.memSeq})
}

// recordLoad enters the executing block's load lsid in the oracle table.
func (e *emulator) recordLoad(lsid int8, addr uint64, size int) {
	id := e.shadow.youngest(addr, size)
	if id == 0 {
		return
	}
	e.oracle.set(lsid, id)
	d := e.memSeq - e.shadow.writers[id-1].memSeq
	bucket := 0
	for d > 1 && bucket < len(e.depDist)-1 {
		d >>= 1
		bucket++
	}
	e.depDist[bucket]++
}

// The oracle's shadow memory mirrors mem's 4 KiB pages.
const (
	shadowBits = 12
	shadowSize = 1 << shadowBits
	shadowMask = shadowSize - 1
)

// shadowPage holds, per byte of one page, 1 + the writers index of the
// youngest store that wrote the byte, or 0 if no store has.
type shadowPage [shadowSize]int32

// shadow is the oracle's last-writer memory.  Every dynamic store appends
// one entry to writers, in memSeq order, and stamps its bytes with that
// entry; so among the bytes a load covers, the youngest writer is simply
// the one with the highest index.
type shadow struct {
	pages   map[uint64]*shadowPage
	lastKey uint64
	last    *shadowPage // page lastKey, or nil before the first hit
	writers []writerInfo
}

// page returns the shadow page holding addr, creating it when create is
// set; without create a missing page is nil.
func (s *shadow) page(addr uint64, create bool) *shadowPage {
	k := addr >> shadowBits
	if s.last != nil && k == s.lastKey {
		return s.last
	}
	p := s.pages[k]
	if p == nil {
		if !create {
			return nil
		}
		p = new(shadowPage)
		s.pages[k] = p
	}
	s.lastKey, s.last = k, p
	return p
}

// store records w as the last writer of the size bytes at addr.
func (s *shadow) store(addr uint64, size int, w writerInfo) error {
	if len(s.writers) == math.MaxInt32 {
		return fmt.Errorf("emu: oracle shadow holds at most %d stores", math.MaxInt32)
	}
	s.writers = append(s.writers, w)
	id := int32(len(s.writers))
	if off := addr & shadowMask; off+uint64(size) <= shadowSize {
		row := s.page(addr, true)[off : off+uint64(size)]
		for i := range row {
			row[i] = id
		}
		return nil
	}
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		s.page(a, true)[a&shadowMask] = id
	}
	return nil
}

// youngest returns 1 + the writers index of the youngest store that wrote
// any of the size bytes at addr, or 0 if no store has.
func (s *shadow) youngest(addr uint64, size int) int32 {
	var id int32
	if off := addr & shadowMask; off+uint64(size) <= shadowSize {
		if p := s.page(addr, false); p != nil {
			for _, v := range p[off : off+uint64(size)] {
				id = max(id, v)
			}
		}
	} else {
		for i := 0; i < size; i++ {
			a := addr + uint64(i)
			if p := s.page(a, false); p != nil {
				id = max(id, p[a&shadowMask])
			}
		}
	}
	return id
}

// Oracle is the perfect-oracle table: for each dynamic load, the dynamic
// store (if any) that most recently wrote an overlapping byte.  It is dense
// and read-only once Run returns.  Committed block seq owns the slots from
// base[seq] up to the next block's base, one per LSID up to its highest
// dependent load; a slot holds 1 + the index of the conflicting store in
// stores, or 0 when there is none.  stores is the shadow's append-only
// store list, which the table shares rather than copies.
type Oracle struct {
	base   []int32
	slots  []int32
	stores []writerInfo
}

// begin opens the next committed block's slot range.
func (o *Oracle) begin() error {
	if len(o.slots) > math.MaxInt32-isa.MaxMemOps {
		return fmt.Errorf("emu: oracle table holds at most %d slots", math.MaxInt32)
	}
	o.base = append(o.base, int32(len(o.slots)))
	return nil
}

// set records that the executing block's load lsid depends on store id-1,
// growing the block's slot range to reach it.  An LSID outside the ISA's
// range names no slot (only a corrupted program has one) and is dropped.
func (o *Oracle) set(lsid int8, id int32) {
	if lsid < 0 || int(lsid) >= isa.MaxMemOps {
		return
	}
	i := int(o.base[len(o.base)-1]) + int(lsid)
	if i >= len(o.slots) {
		o.slots = append(o.slots, make([]int32, i+1-len(o.slots))...)
	}
	o.slots[i] = id
}

// Dep returns the store the dynamic load must wait for, or core.NoDynRef.
// A store, a load with no conflicting store and any reference the run
// never committed all answer core.NoDynRef.
func (o *Oracle) Dep(load core.DynRef) core.DynRef {
	if load.Seq < 0 || load.Seq >= int64(len(o.base)) || load.LSID < 0 {
		return core.NoDynRef
	}
	i := int(o.base[load.Seq]) + int(load.LSID)
	end := len(o.slots)
	if load.Seq+1 < int64(len(o.base)) {
		end = int(o.base[load.Seq+1])
	}
	if i >= end || o.slots[i] == 0 {
		return core.NoDynRef
	}
	return o.stores[o.slots[i]-1].ref
}
