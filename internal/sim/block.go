package sim

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/isa"
)

// instState is the dynamic state of one instruction slot in a mapped block:
// a DSRE reservation station.  The hot per-instruction state lives in the
// owning blockInst's structure-of-arrays fields instead: operand slots in
// the flat ops array (stride isa.NumSlots) and the needExec/queued flags in
// the need/queued bitmaps, so the scheduler and delivery paths touch dense
// cache lines rather than striding over this struct.
type instState struct {
	// inflight counts executions currently in the ALU pipeline; commit-only
	// emission must wait for quiescence or it would certify a stale output.
	inflight int
	// fired counts executions (re-executions are fired > 1).
	fired int64
	// lastOut and outTag describe the most recent output broadcast.
	lastOut   int64
	outTag    core.Tag
	execValid bool

	// committedSent marks that the final (committed) output was emitted.
	committedSent bool
	// nullTag is the newest predicate tag for which a store-null was sent.
	nullTag      core.Tag
	nullSent     bool
	nullCommSent bool
	// storeCommitCounted dedups this store's contribution to the block's
	// committed-store count.
	storeCommitCounted bool
	// sentAddrCom/sentDataCom dedup partial store-commit messages.
	sentAddrCom bool
	sentDataCom bool
	// Value prediction state (loads only): the value speculatively
	// broadcast at map time, and a training dedup flag.
	vpValid   bool
	vpTrained bool
	vpValue   int64
}

// slot returns instruction i's operand slot s in the block's flat SoA
// operand buffer.
func (b *blockInst) slot(i int, s isa.Slot) *core.OperandSlot {
	return &b.ops[i*int(isa.NumSlots)+int(s)]
}

// storeCommitFlags reports whether the commit wave has reached a store's
// address and data operands (the predicate, when present, gates both).
func (b *blockInst) storeCommitFlags(i int, in *isa.Inst) (addrCom, dataCom bool) {
	predOK := in.Pred == isa.PredNone || b.slot(i, isa.SlotP).Committed
	return predOK && b.slot(i, isa.SlotA).Committed, predOK && b.slot(i, isa.SlotB).Committed
}

// slotMask packs one flag of each of three operand slots into bits A, B
// and P, the layout of the per-instruction need masks (see needMask).
func slotMask(a, b, p bool) uint8 {
	var m uint8
	if a {
		m |= 1 << isa.SlotA
	}
	if b {
		m |= 1 << isa.SlotB
	}
	if p {
		m |= 1 << isa.SlotP
	}
	return m
}

// needMask is the operand-need mask of one static instruction: bit s set
// iff it waits on slot s (isa.Inst.NeedsSlot).
func needMask(in *isa.Inst) uint8 {
	return slotMask(in.NeedsSlot(isa.SlotA), in.NeedsSlot(isa.SlotB), in.NeedsSlot(isa.SlotP))
}

// readSlots is a block's register-read table: entry reg is the index in
// Reads of the block's read of register reg (the last one, should a
// register appear twice), or -1 when the block does not read it.
func readSlots(b *isa.Block) []int8 {
	t := make([]int8, isa.NumRegs)
	for reg := range t {
		t[reg] = -1
	}
	for r := range b.Reads {
		t[b.Reads[r].Reg] = int8(r)
	}
	return t
}

// inputsCommitted reports whether every operand slot instruction i waits
// on holds a committed value.
func (b *blockInst) inputsCommitted(i int) bool {
	o := b.ops[i*int(isa.NumSlots) : (i+1)*int(isa.NumSlots)]
	m := b.needs[i]
	return slotMask(o[isa.SlotA].Committed, o[isa.SlotB].Committed, o[isa.SlotP].Committed)&m == m
}

// operandsPresent reports whether every needed slot of instruction i holds
// a value.
func (b *blockInst) operandsPresent(i int) bool {
	o := b.ops[i*int(isa.NumSlots) : (i+1)*int(isa.NumSlots)]
	m := b.needs[i]
	return slotMask(o[isa.SlotA].Present, o[isa.SlotB].Present, o[isa.SlotP].Present)&m == m
}

// inputTag is the tag an execution of instruction i carries: the newest
// tag among the operand slots it waits on.
func (b *blockInst) inputTag(i int) core.Tag {
	t := core.Tag(0)
	for m := b.needs[i]; m != 0; m &= m - 1 {
		t = core.MaxTag(t, b.slot(i, isa.Slot(bits.TrailingZeros8(m))).Tag)
	}
	return t
}

// predEnabled reports instruction i's predicate check: ok is false while
// the predicate has not arrived.
func (b *blockInst) predEnabled(i int, in *isa.Inst) (enabled, ok bool) {
	if in.Pred == isa.PredNone {
		return true, true
	}
	p := b.slot(i, isa.SlotP)
	if !p.Present {
		return false, false
	}
	truth := p.Value != 0
	return (in.Pred == isa.PredTrue) == truth, true
}

// writeState is one register write slot of a mapped block, physically
// homed at a register tile.
type writeState struct {
	slot    core.OperandSlot
	counted bool // contributed to writesCommitted
}

// blockInst is one in-flight dynamic block.
type blockInst struct {
	seq     int64
	blockID int
	bdef    *isa.Block
	frame   int32
	gen     uint32

	insts  []instState
	writes []writeState
	// needs[i] is instruction i's operand-need mask (see needMask), the
	// machine's per-program table shared by every instance of the block.
	needs []uint8
	// fired is the sum of insts[i].fired: executions the block has done,
	// what a squash of it discards.
	fired int64

	// ops is the block's operand buffer in structure-of-arrays form: the
	// isa.NumSlots operand slots of instruction i live at
	// ops[i*NumSlots : (i+1)*NumSlots] (see slot).
	ops []core.OperandSlot
	// need marks instructions that must (re-)execute: an operand changed
	// since the last execution, or they have never executed.
	need bitset.Mask128
	// queued marks instructions resident in a tile ready mask.
	queued bitset.Mask128

	// branch is the block's control outcome (value = next block ID),
	// written by whichever branch instruction fires.
	branch        core.OperandSlot
	branchCounted bool

	// readBind maps each register read slot to the producing older block's
	// sequence number, or -1 for the architectural register file.
	readBind []int64
	// regRead[reg] is the read slot of register reg, or -1 if the block
	// does not read it, for producer pushes; shared with the block's row
	// of Machine.regReads.
	regRead []int8

	writesCommitted int
	storesCommitted int
	numStores       int
	predictedNext   int   // what fetch predicted would follow (for stats)
	mapCycle        int64 // cycle the block was mapped, for residency spans
}

// outputsCommitted reports whether the block's architectural outputs are
// all final: branch, register writes and stores (or their null tokens).
func (b *blockInst) outputsCommitted() bool {
	return b.branch.Committed &&
		b.writesCommitted == len(b.writes) &&
		b.storesCommitted == b.numStores
}
