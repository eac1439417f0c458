package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeProperties(t *testing.T) {
	for op := OpNop; op < numOpcodes; op++ {
		if !op.Valid() {
			t.Errorf("%s: Valid() = false for defined opcode", op)
		}
		if op.IsLoad() && op.IsStore() {
			t.Errorf("%s: both load and store", op)
		}
		if op.IsMem() != (op.IsLoad() || op.IsStore()) {
			t.Errorf("%s: IsMem inconsistent", op)
		}
		if op.IsMem() && op.MemSize() != 1 && op.MemSize() != 8 {
			t.Errorf("%s: memory op with size %d", op, op.MemSize())
		}
		if !op.IsMem() && op.MemSize() != 0 {
			t.Errorf("%s: non-memory op with size %d", op, op.MemSize())
		}
		if n := op.NumDataOperands(); n < 0 || n > 2 {
			t.Errorf("%s: %d data operands", op, n)
		}
		if op.String() == "" {
			t.Errorf("opcode %d: empty name", op)
		}
	}
	if Opcode(200).Valid() {
		t.Error("Valid() = true for undefined opcode")
	}
}

func TestEvalSemantics(t *testing.T) {
	cases := []struct {
		op      Opcode
		a, b, i int64
		want    int64
	}{
		{OpMov, 7, 0, 0, 7},
		{OpMovi, 0, 0, -13, -13},
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, -1},
		{OpMul, -3, 4, 0, -12},
		{OpDiv, 7, 2, 0, 3},
		{OpDiv, 7, 0, 0, 0},
		{OpDiv, -7, 2, 0, -3},
		{OpRem, 7, 3, 0, 1},
		{OpRem, 7, 0, 0, 0},
		{OpNeg, 5, 0, 0, -5},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpNot, 0, 0, 0, -1},
		{OpShl, 1, 4, 0, 16},
		{OpShl, 1, 64, 0, 1}, // shift amounts wrap mod 64
		{OpShr, -1, 63, 0, 1},
		{OpSra, -8, 2, 0, -2},
		{OpTeq, 4, 4, 0, 1},
		{OpTne, 4, 4, 0, 0},
		{OpTlt, -1, 0, 0, 1},
		{OpTle, 0, 0, 0, 1},
		{OpTgt, 1, 0, 0, 1},
		{OpTge, -1, 0, 0, 0},
		{OpTltu, -1, 0, 0, 0}, // -1 is huge unsigned
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b, c.i); got != c.want {
			t.Errorf("Eval(%s, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.i, got, c.want)
		}
	}
}

// TestEvalTestOpsAreBoolean property-checks that comparison results are 0/1
// and complementary pairs disagree.
func TestEvalTestOpsAreBoolean(t *testing.T) {
	f := func(a, b int64) bool {
		for _, op := range []Opcode{OpTeq, OpTne, OpTlt, OpTle, OpTgt, OpTge, OpTltu} {
			v := Eval(op, a, b, 0)
			if v != 0 && v != 1 {
				return false
			}
		}
		return Eval(OpTeq, a, b, 0) != Eval(OpTne, a, b, 0) &&
			Eval(OpTlt, a, b, 0) != Eval(OpTge, a, b, 0) &&
			Eval(OpTle, a, b, 0) != Eval(OpTgt, a, b, 0)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestInstNeedsSlot(t *testing.T) {
	st := Inst{Op: OpSt, Pred: PredTrue}
	if !st.NeedsSlot(SlotA) || !st.NeedsSlot(SlotB) || !st.NeedsSlot(SlotP) {
		t.Error("predicated store should need A, B and P")
	}
	if st.NumInputs() != 3 {
		t.Errorf("NumInputs = %d, want 3", st.NumInputs())
	}
	ld := Inst{Op: OpLd}
	if !ld.NeedsSlot(SlotA) || ld.NeedsSlot(SlotB) || ld.NeedsSlot(SlotP) {
		t.Error("load should need only A")
	}
	movi := Inst{Op: OpMovi}
	if movi.NumInputs() != 0 {
		t.Error("movi should need no inputs")
	}
}

func TestStrings(t *testing.T) {
	in := Inst{Op: OpLd, Imm: 8, LSID: 2, Targets: []Target{{Kind: TargetInst, Index: 5, Slot: SlotB}}}
	if got := in.String(); got != "ld #8 [lsid 2] -> i5.b" {
		t.Errorf("Inst.String() = %q", got)
	}
	w := Target{Kind: TargetWrite, Index: 3}
	if w.String() != "w3" {
		t.Errorf("Target.String() = %q", w.String())
	}
	if PredTrue.String() != "_t" || PredFalse.String() != "_f" || PredNone.String() != "" {
		t.Error("PredMode strings wrong")
	}
}
