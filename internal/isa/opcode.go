// Package isa defines the EDGE (Explicit Data Graph Execution) instruction
// set used throughout this repository.
//
// The ISA is modelled on the TRIPS prototype evaluated by Desikan et al. in
// "Scalable selective re-execution for EDGE architectures" (ASPLOS 2004):
// programs are partitioned into blocks of at most MaxInsts instructions that
// are fetched, mapped onto a grid of execution tiles, executed in dataflow
// order, and committed atomically.  Within a block, instructions name their
// consumers directly (targets) instead of writing registers; blocks
// communicate through architectural registers and memory.
package isa

import "fmt"

// Opcode enumerates the operations of the EDGE ISA.
type Opcode uint8

// Opcode values.  The set is deliberately small but complete enough to
// express the workload kernels: integer arithmetic and logic, comparisons
// (which produce 0/1 predicates), moves and constant generation, loads and
// stores of one and eight bytes, and direct/indirect block branches.
const (
	OpNop Opcode = iota

	// Data movement.
	OpMov  // result = A
	OpMovi // result = Imm (no data operands)

	// Arithmetic.
	OpAdd // result = A + B
	OpSub // result = A - B
	OpMul // result = A * B
	OpDiv // result = A / B (signed; division by zero yields 0)
	OpRem // result = A % B (signed; modulo by zero yields 0)
	OpNeg // result = -A

	// Logic and shifts.
	OpAnd // result = A & B
	OpOr  // result = A | B
	OpXor // result = A ^ B
	OpNot // result = ^A
	OpShl // result = A << (B & 63)
	OpShr // result = logical A >> (B & 63)
	OpSra // result = arithmetic A >> (B & 63)

	// Comparisons ("test" ops); result is 1 when the relation holds, else 0.
	OpTeq  // A == B
	OpTne  // A != B
	OpTlt  // A < B   (signed)
	OpTle  // A <= B  (signed)
	OpTgt  // A > B   (signed)
	OpTge  // A >= B  (signed)
	OpTltu // A < B  (unsigned)

	// Memory.  Effective address is A + Imm.  Loads deliver the loaded
	// value to their targets; stores take the value to store in operand B.
	OpLd  // 8-byte load, result = mem[A+Imm]
	OpLd1 // 1-byte load, zero-extended
	OpSt  // 8-byte store, mem[A+Imm] = B
	OpSt1 // 1-byte store, mem[A+Imm] = B & 0xff

	// Control.  Exactly one branch fires per dynamic block execution and
	// names the next block.  OpBro branches to the static block Imm;
	// OpBri branches to the block whose ID is in operand A.  A target of
	// HaltTarget terminates the program.
	OpBro
	OpBri

	numOpcodes
)

// HaltTarget is the branch destination that terminates execution.
const HaltTarget = -1

var opcodeNames = [numOpcodes]string{
	OpNop: "nop", OpMov: "mov", OpMovi: "movi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpNeg: "neg", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSra: "sra",
	OpTeq: "teq", OpTne: "tne", OpTlt: "tlt", OpTle: "tle", OpTgt: "tgt",
	OpTge: "tge", OpTltu: "tltu",
	OpLd: "ld", OpLd1: "ld1", OpSt: "st", OpSt1: "st1",
	OpBro: "bro", OpBri: "bri",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// NumDataOperands returns how many data operand slots (A, then B) the opcode
// reads.  The predicate slot is counted separately (see Inst.Pred).
func (op Opcode) NumDataOperands() int {
	switch op {
	case OpNop, OpMovi, OpBro:
		return 0
	case OpMov, OpNeg, OpNot, OpLd, OpLd1, OpBri:
		return 1
	default:
		return 2
	}
}

// IsLoad reports whether the opcode reads memory.
func (op Opcode) IsLoad() bool { return op == OpLd || op == OpLd1 }

// IsStore reports whether the opcode writes memory.
func (op Opcode) IsStore() bool { return op == OpSt || op == OpSt1 }

// IsMem reports whether the opcode accesses memory.
func (op Opcode) IsMem() bool { return op.IsLoad() || op.IsStore() }

// IsBranch reports whether the opcode decides the next block.
func (op Opcode) IsBranch() bool { return op == OpBro || op == OpBri }

// MemSize returns the access width in bytes for memory opcodes, or 0.
func (op Opcode) MemSize() int {
	switch op {
	case OpLd, OpSt:
		return 8
	case OpLd1, OpSt1:
		return 1
	default:
		// Every non-memory opcode: no access width.
		return 0
	}
}

// ProducesValue reports whether the opcode delivers a result to dataflow
// targets.  Stores and branches produce no dataflow value (stores complete
// into the LSQ, branches into the global control tile).
func (op Opcode) ProducesValue() bool {
	return !op.IsStore() && !op.IsBranch() && op != OpNop
}

// Eval computes the architectural result of a non-memory, non-branch opcode.
// It is shared by the architectural emulator and the cycle simulator so the
// two can never diverge on arithmetic semantics.
func Eval(op Opcode, a, b, imm int64) int64 {
	switch op {
	case OpMov:
		return a
	case OpMovi:
		return imm
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpRem:
		if b == 0 {
			return 0
		}
		return a % b
	case OpNeg:
		return -a
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpNot:
		return ^a
	case OpShl:
		return a << (uint64(b) & 63)
	case OpShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case OpSra:
		return a >> (uint64(b) & 63)
	case OpTeq:
		return btoi(a == b)
	case OpTne:
		return btoi(a != b)
	case OpTlt:
		return btoi(a < b)
	case OpTle:
		return btoi(a <= b)
	case OpTgt:
		return btoi(a > b)
	case OpTge:
		return btoi(a >= b)
	case OpTltu:
		return btoi(uint64(a) < uint64(b))
	default:
		// Memory, branch and nop opcodes have no arithmetic result; their
		// semantics live in the LSQ and control-tile paths.
		return 0
	}
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ParseOpcode maps an assembler mnemonic back to its opcode.
func ParseOpcode(name string) (Opcode, bool) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opcodeNames[op] == name {
			return op, true
		}
	}
	return 0, false
}
