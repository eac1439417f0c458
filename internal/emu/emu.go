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
	"math/bits"

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
		dec: make([]*block, len(p.Blocks)),
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
	res.Oracle = e.oracle
	res.DepDistance = e.depDist
	res.BlockTrace = e.trace.flatten()
	res.StoreTrace = e.storeTrace
	return res, nil
}

type emulator struct {
	p    *isa.Program
	m    *mem.Memory
	regs [isa.NumRegs]int64
	opt  Options

	// dec holds each static block's decoded form, by block ID, made the
	// first time the block runs.
	dec []*block
	// gen stamps the executing block's operands: an operand is present
	// when its stamp equals gen, which execBlock bumps once per block, so
	// nothing is cleared between blocks.
	gen uint64

	// blocks, insts, loads and stores count what has committed.  A load
	// or store's dynamic memory-op sequence number is loads + stores
	// before it.
	blocks int64
	insts  int64
	loads  int64
	stores int64

	oracle     *Oracle
	storeTrace []StoreRecord
	shadow     *shadow
	depDist    [24]int64
	trace      segList[int]
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
		d := e.dec[cur]
		if d == nil {
			d = decode(b)
			e.dec[cur] = d
		}
		next, err := e.execBlock(d)
		if err != nil {
			return fmt.Errorf("emu: block %d %q (seq %d): %w", b.ID, b.Name, e.blocks, err)
		}
		if e.opt.TraceBlocks > 0 && e.trace.n < e.opt.TraceBlocks {
			e.trace.push(b.ID)
		}
		e.blocks++
		if next == isa.HaltTarget {
			return nil
		}
		cur = next
	}
}

// block is one static block decoded for execution.  Every operand and
// register-write slot of the block is one entry of slots: instruction i's
// slot s is 3i+s, and write slot w follows the instructions' at 3n+w.
// Each instruction and register read names its consumers as a range of
// targets, which holds slot indices, so a delivery is one indexed store
// after the generation check.
type block struct {
	src     *isa.Block
	insts   []inst
	reads   []read
	targets []int32
	slots   []operand
	writes  int // index of write slot 0 in slots
}

// inst is one decoded instruction.  nd is its number of data operands;
// targets[tlo:thi] are its consumers.
type inst struct {
	imm      int64
	tlo, thi int32
	kind     kind
	op       isa.Opcode
	pred     isa.PredMode
	nd       uint8
	size     uint8
	lsid     int8
}

// read is one decoded register read: targets[tlo:thi] receive register reg.
type read struct {
	reg      uint8
	tlo, thi int32
}

// kind is what an instruction does once it fires.
type kind uint8

const (
	kindEval  kind = iota // delivers isa.Eval (nop included)
	kindMov               // delivers operand A, as isa.Eval does for mov
	kindConst             // delivers imm, as isa.Eval does for movi
	kindLoad
	kindStore
	kindBranch // bro: branches to imm
	kindBri    // branches to operand A
)

// operand is one slot during a block execution; it holds a value for the
// executing block only when gen equals the emulator's stamp.
type operand struct {
	val int64
	gen uint64
}

// decode flattens b.  A target that names no slot of b (an index past the
// block or an operand slot past SlotP, which only a corrupted program
// has) becomes -1, so delivering to it panics on the bounds check, as in
// ReferenceRun; a target of unknown kind is dropped, as ReferenceRun
// drops it.
func decode(b *isa.Block) *block {
	n := len(b.Insts)
	d := &block{
		src:    b,
		insts:  make([]inst, n),
		reads:  make([]read, len(b.Reads)),
		slots:  make([]operand, int(isa.NumSlots)*n+len(b.Writes)),
		writes: int(isa.NumSlots) * n,
	}
	addTargets := func(ts []isa.Target) (lo, hi int32) {
		lo = int32(len(d.targets))
		for _, t := range ts {
			s := int32(-1)
			switch t.Kind {
			case isa.TargetInst:
				if int(t.Index) < n && t.Slot < isa.NumSlots {
					s = int32(isa.NumSlots)*int32(t.Index) + int32(t.Slot)
				}
			case isa.TargetWrite:
				if int(t.Index) < len(b.Writes) {
					s = int32(d.writes + int(t.Index))
				}
			default:
				continue
			}
			d.targets = append(d.targets, s)
		}
		return lo, int32(len(d.targets))
	}
	for i, r := range b.Reads {
		lo, hi := addTargets(r.Targets)
		d.reads[i] = read{reg: r.Reg, tlo: lo, thi: hi}
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		k := kindEval
		switch {
		case in.Op == isa.OpMov:
			k = kindMov
		case in.Op == isa.OpMovi:
			k = kindConst
		case in.Op.IsLoad():
			k = kindLoad
		case in.Op.IsStore():
			k = kindStore
		case in.Op == isa.OpBri:
			k = kindBri
		case in.Op.IsBranch():
			k = kindBranch
		}
		lo, hi := addTargets(in.Targets)
		d.insts[i] = inst{
			imm: in.Imm, tlo: lo, thi: hi, kind: k, op: in.Op, pred: in.Pred,
			nd: uint8(in.Op.NumDataOperands()), size: uint8(in.Op.MemSize()), lsid: in.LSID,
		}
	}
	return d
}

// deliver sends v to the slots targets[lo:hi] name, enforcing that each
// receives at most one value per block.  execBlock inlines the same loop
// for instructions.
func (e *emulator) deliver(d *block, lo, hi int32, v int64) error {
	for _, t := range d.targets[lo:hi] {
		s := &d.slots[t]
		if s.gen == e.gen {
			return d.twice(t)
		}
		s.val, s.gen = v, e.gen
	}
	return nil
}

// twice is the error for slot t receiving a second value.
func (d *block) twice(t int32) error {
	if int(t) >= d.writes {
		return fmt.Errorf("write slot %d received two values", int(t)-d.writes)
	}
	n := int32(isa.NumSlots)
	return fmt.Errorf("operand %s received two values", isa.Target{Kind: isa.TargetInst, Index: uint8(t / n), Slot: isa.Slot(t % n)})
}

// missing is the error for instruction i firing without operand s.
func (d *block) missing(i int, s isa.Slot) error {
	return fmt.Errorf("i%d (%s): operand %s missing", i, d.insts[i].op, s)
}

func (e *emulator) execBlock(d *block) (next int, err error) {
	seq := e.blocks
	e.gen++
	gen := e.gen
	if e.oracle != nil {
		if err := e.oracle.begin(); err != nil {
			return 0, err
		}
	}
	var target int64
	branchTaken := false

	for _, r := range d.reads {
		if err := e.deliver(d, r.tlo, r.thi, e.regs[r.reg]); err != nil {
			return 0, fmt.Errorf("read r%d: %w", r.reg, err)
		}
	}

	// The block's counts stay in locals and are stored once it commits;
	// a block that fails discards them with the whole run.
	insts, loads, stores := e.insts, e.loads, e.stores
	slots := d.slots
	for i := range d.insts {
		in := &d.insts[i]
		ops := slots[int(isa.NumSlots)*i:][:isa.NumSlots]
		var a, bv int64
		if in.nd >= 1 {
			if ops[isa.SlotA].gen != gen {
				return 0, d.missing(i, isa.SlotA)
			}
			a = ops[isa.SlotA].val
			if in.nd >= 2 {
				if ops[isa.SlotB].gen != gen {
					return 0, d.missing(i, isa.SlotB)
				}
				bv = ops[isa.SlotB].val
			}
		}
		if in.pred != isa.PredNone {
			if ops[isa.SlotP].gen != gen {
				return 0, d.missing(i, isa.SlotP)
			}
			if (in.pred == isa.PredTrue) != (ops[isa.SlotP].val != 0) {
				continue // nullified: fires nothing
			}
		}
		insts++
		var v int64
		switch in.kind {
		case kindEval:
			v = isa.Eval(in.op, a, bv, in.imm)
		case kindMov:
			v = a
		case kindConst:
			v = in.imm
		case kindLoad:
			addr := uint64(a + in.imm)
			v = e.m.Read(addr, int(in.size))
			if e.oracle != nil {
				e.recordLoad(in.lsid, addr, int(in.size), loads+stores)
			}
			loads++
		case kindStore:
			addr := uint64(a + in.imm)
			e.m.Write(addr, bv, int(in.size))
			if e.opt.TraceStores {
				ref := core.DynRef{Seq: seq, LSID: in.lsid}
				e.storeTrace = append(e.storeTrace, StoreRecord{Ref: ref, Addr: addr, Data: bv, Size: int(in.size)})
			}
			if e.oracle != nil {
				if seq >= maxPackedSeq {
					return 0, fmt.Errorf("emu: the oracle names stores of at most %d blocks", int64(maxPackedSeq))
				}
				e.shadow.store(addr, int(in.size), writer{order: loads + stores + 1, ref: packRef(seq, in.lsid)})
			}
			stores++
			continue
		default:
			t := in.imm
			if in.kind == kindBri {
				t = a
			}
			if branchTaken {
				return 0, fmt.Errorf("i%d: second branch fired", i)
			}
			branchTaken = true
			target = t
			continue
		}
		// Deliver v, enforcing that each slot receives at most one
		// value per block.  The first target is peeled off the loop:
		// nearly every instruction has one or two.
		if in.thi > in.tlo {
			t := d.targets[in.tlo]
			s := &slots[t]
			if s.gen == gen {
				return 0, fmt.Errorf("i%d: %w", i, d.twice(t))
			}
			s.val, s.gen = v, gen
			for _, t := range d.targets[in.tlo+1 : in.thi] {
				s := &slots[t]
				if s.gen == gen {
					return 0, fmt.Errorf("i%d: %w", i, d.twice(t))
				}
				s.val, s.gen = v, gen
			}
		}
	}

	if !branchTaken {
		return 0, fmt.Errorf("no branch fired")
	}
	writes := slots[d.writes:]
	for w := range writes {
		if writes[w].gen != gen {
			return 0, fmt.Errorf("write slot %d (r%d) received no value", w, d.src.Writes[w].Reg)
		}
	}
	for w := range writes {
		e.regs[d.src.Writes[w].Reg] = writes[w].val
	}
	next = int(target)
	if next != isa.HaltTarget && (next < 0 || next >= len(e.p.Blocks)) {
		return 0, fmt.Errorf("branch to out-of-range block %d", next)
	}
	e.insts, e.loads, e.stores = insts, loads, stores
	return next, nil
}

// recordLoad enters the executing block's load lsid in the oracle table
// and its store→load distance in the histogram.
// The load is dynamic memory op memSeq.
func (e *emulator) recordLoad(lsid int8, addr uint64, size int, memSeq int64) {
	w := e.shadow.youngest(addr, size)
	if w.order == 0 {
		return
	}
	e.oracle.set(lsid, w.ref)
	bucket := 0
	if d := memSeq - (w.order - 1); d > 1 {
		bucket = min(bits.Len64(uint64(d))-1, len(e.depDist)-1)
	}
	e.depDist[bucket]++
}
