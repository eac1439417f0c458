package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

var predModes = []isa.PredMode{isa.PredNone, isa.PredTrue, isa.PredFalse}

// TestNeedMaskMatchesNeedsSlot: for every opcode under every predicate
// mode, bit s of the decoded mask is set iff the instruction waits on slot
// s, and no bit beyond the three slots is ever set.
func TestNeedMaskMatchesNeedsSlot(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		for _, pred := range predModes {
			in := isa.Inst{Op: op, Pred: pred}
			m := needMask(&in)
			if m>>isa.NumSlots != 0 {
				t.Errorf("%s%s: mask %03b has bits beyond the slots", op, pred, m)
			}
			for s := isa.SlotA; s < isa.NumSlots; s++ {
				if got, want := m>>s&1 != 0, in.NeedsSlot(s); got != want {
					t.Errorf("%s%s slot %s: mask bit %v, NeedsSlot %v", op, pred, s, got, want)
				}
			}
		}
	}
}

// TestOperandChecksMatchSlotLoops: over every opcode × predicate mode and
// all 8 × 8 Present/Committed combinations of the three slots,
// operandsPresent and inputsCommitted agree with their slot-by-slot
// definitions, and inputTag is the newest tag among the needed slots for
// every ordering of three distinct slot tags.
func TestOperandChecksMatchSlotLoops(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		for _, pred := range predModes {
			in := isa.Inst{Op: op, Pred: pred}
			b := &blockInst{
				ops:   make([]core.OperandSlot, 2*int(isa.NumSlots)),
				needs: []uint8{0, needMask(&in)},
			}
			for _, tags := range [][3]core.Tag{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}} {
				want := core.Tag(0)
				for s := isa.SlotA; s < isa.NumSlots; s++ {
					b.slot(1, s).Tag = tags[s]
					if in.NeedsSlot(s) {
						want = core.MaxTag(want, tags[s])
					}
				}
				if got := b.inputTag(1); got != want {
					t.Errorf("%s%s tags %v: inputTag %d, want %d", op, pred, tags, got, want)
				}
			}
			for present := 0; present < 8; present++ {
				for committed := 0; committed < 8; committed++ {
					for s := isa.SlotA; s < isa.NumSlots; s++ {
						b.slot(1, s).Present = present>>s&1 != 0
						b.slot(1, s).Committed = committed>>s&1 != 0
					}
					wantPresent, wantCommitted := true, true
					for s := isa.SlotA; s < isa.NumSlots; s++ {
						if in.NeedsSlot(s) && !b.slot(1, s).Present {
							wantPresent = false
						}
						if in.NeedsSlot(s) && !b.slot(1, s).Committed {
							wantCommitted = false
						}
					}
					if got := b.operandsPresent(1); got != wantPresent {
						t.Errorf("%s%s present=%03b: operandsPresent %v, want %v", op, pred, present, got, wantPresent)
					}
					if got := b.inputsCommitted(1); got != wantCommitted {
						t.Errorf("%s%s committed=%03b: inputsCommitted %v, want %v", op, pred, committed, got, wantCommitted)
					}
				}
			}
		}
	}
}

// TestMachineTables checks the lookup tables New builds against the
// formulas they replace: every static instruction's need mask, the
// register-bank node of every register, and the D-tile node of a spread of
// addresses under bank counts below, inside and above the grid's range.
// The grid is not square, so a width/height mix-up shows.
func TestMachineTables(t *testing.T) {
	w := workload.MustBuild("histogram", workload.Params{Size: 64})
	for _, banks := range []int{0, 1, 2, 3, 9} {
		cfg := DefaultConfig()
		cfg.GridWidth, cfg.GridHeight = 5, 3
		cfg.DTileBanks = banks
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id, blk := range w.Program.Blocks {
			for i := range blk.Insts {
				if got, want := mc.needs[id][i], needMask(&blk.Insts[i]); got != want {
					t.Errorf("block %d inst %d: need mask %03b, want %03b", id, i, got, want)
				}
			}
		}
		for reg := 0; reg < isa.NumRegs; reg++ {
			if got, want := mc.regNode(uint8(reg)), mc.net.Node(1+reg%cfg.GridWidth, 0); got != want {
				t.Errorf("reg %d: node %d, want %d", reg, got, want)
			}
		}
		clamped := min(max(banks, 1), cfg.GridHeight)
		for addr := uint64(0); addr < 1<<14; addr += 24 {
			want := mc.net.Node(0, 1+int((addr>>6)%uint64(clamped)))
			if got := mc.memNode(addr); got != want {
				t.Fatalf("banks %d addr %#x: node %d, want %d", banks, addr, got, want)
			}
		}
	}
}

// TestReadSlotsMatchMap pins the register-read table New builds against
// the per-block map it replaced (register -> read slot, filled in Reads
// order so a register read twice keeps its last slot), over every block of
// every kernel.
func TestReadSlotsMatchMap(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.MustBuild(name, workload.Params{Size: 64})
		mc, err := New(DefaultConfig(), w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id, blk := range w.Program.Blocks {
			old := make(map[uint8]int, len(blk.Reads))
			for r := range blk.Reads {
				old[blk.Reads[r].Reg] = r
			}
			row := mc.regReads[id]
			if len(row) != isa.NumRegs {
				t.Fatalf("%s block %d: table has %d registers", name, id, len(row))
			}
			for reg := 0; reg < isa.NumRegs; reg++ {
				want, ok := old[uint8(reg)]
				if !ok {
					want = -1
				}
				if got := int(row[reg]); got != want {
					t.Errorf("%s block %d reg %d: read slot %d, want %d", name, id, reg, got, want)
				}
			}
		}
	}
	// A register read twice: the map kept the later slot.
	blk := &isa.Block{Reads: []isa.RegRead{{Reg: 5}, {Reg: 9}, {Reg: 5}}}
	if got := readSlots(blk); got[5] != 2 || got[9] != 1 || got[0] != -1 {
		t.Errorf("duplicate read: slots %d/%d/%d, want 2/1/-1", got[5], got[9], got[0])
	}
}
