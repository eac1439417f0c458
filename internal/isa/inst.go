package isa

import (
	"fmt"
	"strings"
)

// Architectural limits, modelled on the TRIPS prototype.
const (
	MaxInsts   = 128 // instructions per block
	MaxReads   = 32  // register read slots per block
	MaxWrites  = 32  // register write slots per block
	MaxMemOps  = 32  // load/store IDs per block
	NumRegs    = 64  // architectural registers
	MaxTargets = 2   // dataflow targets per instruction; wider fanout uses mov trees
)

// Slot identifies which operand of a consumer a target feeds.
type Slot uint8

// Operand slots.
const (
	SlotA Slot = iota // left data operand
	SlotB             // right data operand
	SlotP             // predicate operand
	NumSlots
)

// String returns "a", "b" or "p".
func (s Slot) String() string {
	switch s {
	case SlotA:
		return "a"
	case SlotB:
		return "b"
	case SlotP:
		return "p"
	}
	return fmt.Sprintf("slot(%d)", uint8(s))
}

// TargetKind distinguishes the namespaces a target can point into.
type TargetKind uint8

// Target kinds.
const (
	TargetInst  TargetKind = iota // operand slot of another instruction
	TargetWrite                   // register write slot of the block
)

// Target names one consumer of an instruction's result.
type Target struct {
	Kind  TargetKind
	Index uint8 // instruction index or write-slot index
	Slot  Slot  // operand slot (TargetInst only)
}

// String renders a target as, e.g., "i12.a" or "w3".
func (t Target) String() string {
	if t.Kind == TargetWrite {
		return fmt.Sprintf("w%d", t.Index)
	}
	return fmt.Sprintf("i%d.%s", t.Index, t.Slot)
}

// PredMode describes an instruction's predication.
type PredMode uint8

// Predication modes.  A predicated instruction waits for a value in its
// predicate slot and executes only when the value's truth matches the mode;
// otherwise it is nullified: it produces nothing to dataflow targets, and
// memory/branch operations signal a null completion to the LSQ/control tile.
const (
	PredNone  PredMode = iota // unpredicated
	PredTrue                  // execute when predicate != 0
	PredFalse                 // execute when predicate == 0
)

// String returns "", "_t" or "_f" (assembler suffix style).
func (p PredMode) String() string {
	switch p {
	case PredNone:
		return ""
	case PredTrue:
		return "_t"
	case PredFalse:
		return "_f"
	default:
		return ""
	}
}

// NoLSID marks non-memory instructions.
const NoLSID = -1

// Inst is one EDGE instruction.  Instructions carry their consumers
// explicitly (Targets); they have no source-register fields because operands
// arrive over the operand network from producers, register read slots, or
// the LSQ (for loads).
type Inst struct {
	Op   Opcode
	Pred PredMode
	Imm  int64 // constant for OpMovi, address offset for memory ops, static block target for OpBro
	LSID int8  // load/store ID giving the sequential memory order within the block; NoLSID otherwise

	Targets []Target
}

// NeedsSlot reports whether the instruction waits on the given operand slot.
func (in *Inst) NeedsSlot(s Slot) bool {
	switch s {
	case SlotA:
		return in.Op.NumDataOperands() >= 1
	case SlotB:
		return in.Op.NumDataOperands() >= 2
	case SlotP:
		return in.Pred != PredNone
	}
	return false
}

// NumInputs returns the total number of operand slots the instruction waits
// on, including the predicate slot.
func (in *Inst) NumInputs() int {
	n := in.Op.NumDataOperands()
	if in.Pred != PredNone {
		n++
	}
	return n
}

// String renders the instruction in a readable assembler-like form.
func (in *Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s", in.Op, in.Pred)
	if in.Op == OpMovi || in.Op == OpBro || in.Op.IsMem() {
		fmt.Fprintf(&b, " #%d", in.Imm)
	}
	if in.LSID != NoLSID {
		fmt.Fprintf(&b, " [lsid %d]", in.LSID)
	}
	if len(in.Targets) > 0 {
		parts := make([]string, len(in.Targets))
		for i, t := range in.Targets {
			parts[i] = t.String()
		}
		fmt.Fprintf(&b, " -> %s", strings.Join(parts, ","))
	}
	return b.String()
}

// RegRead is a block register-read slot: at block map time the value of Reg
// is fetched (from an older in-flight block's write or the architectural
// file) and injected into the dataflow graph at Targets.
type RegRead struct {
	Reg     uint8
	Targets []Target
}

// String renders the read slot.
func (r RegRead) String() string {
	parts := make([]string, len(r.Targets))
	for i, t := range r.Targets {
		parts[i] = t.String()
	}
	return fmt.Sprintf("read r%d -> %s", r.Reg, strings.Join(parts, ","))
}

// RegWrite is a block register-write slot: exactly one instruction fires
// into it per dynamic execution, and the value becomes the architectural
// value of Reg when the block commits.
type RegWrite struct {
	Reg uint8
}

// String renders the write slot.
func (w RegWrite) String() string { return fmt.Sprintf("write r%d", w.Reg) }
