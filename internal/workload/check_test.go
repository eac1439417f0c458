package workload

import (
	"testing"

	"repro/internal/emu"
)

// TestCheckFailureMessages corrupts one checked word of each kernel's final
// state and pins the error Check returns byte for byte.  Kernels with more
// than one kind of checked word get one corruption per kind.  Labels are
// formatted only when a check fails, so this is the test that keeps those
// messages what they were when every label was formatted eagerly.
func TestCheckFailureMessages(t *testing.T) {
	cases := []struct {
		kernel string
		addr   uint64
		want   string
	}{
		{"bank", DataBase + 8*1,
			"bank[1]: mem[0x100008] = 6319, want 6318"},
		{"cursor", ResultBase,
			"cursor sum: mem[0x8000] = 769783, want 769782"},
		{"cursor", DataBase3,
			"cursor final position: mem[0x800000] = 1048705, want 1048704"},
		{"dotprod", ResultBase,
			"dotprod: mem[0x8000] = 47102639800, want 47102639799"},
		{"hashmap", DataBase + 16*1,
			"hashmap key[1]: mem[0x100010] = 1, want 0"},
		{"hashmap", DataBase + 16*1 + 8,
			"hashmap val[1]: mem[0x100018] = 1, want 0"},
		{"histogram", DataBase + 8*1,
			"histogram[1]: mem[0x100008] = 1, want 0"},
		{"listsum", ResultBase,
			"listsum total: mem[0x8000] = 957480, want 957479"},
		{"listsum", DataBase + 8,
			"listsum node 7: mem[0x100008] = 134529, want 134528"},
		{"matmul", DataBase3 + 8*1,
			"matmul C[1]: mem[0x800008] = 34561, want 34560"},
		{"queue", ResultBase,
			"queue checksum: mem[0x8000] = 769783, want 769782"},
		{"queue", qHeadCell,
			"queue head: mem[0x9000] = 17, want 16"},
		{"queue", qTailCell,
			"queue tail: mem[0x9008] = 33, want 32"},
		{"sort", DataBase + 8*1,
			"sort[1]: mem[0x100008] = 1, want 0"},
		{"spmv", 0xC00000 + 8*1,
			"spmv y[1]: mem[0xc00008] = 282152, want 282151"},
		{"stencil", DataBase + 8*1,
			"stencil[1]: mem[0x100008] = 963, want 962"},
		{"strmatch", ResultBase,
			"strmatch count: mem[0x8000] = 1, want 0"},
		{"treewalk", DataBase + tnCount,
			"treewalk count @0x100000: mem[0x100018] = 1, want 0"},
		{"vecsum", ResultBase,
			"vecsum: mem[0x8000] = 2357082384653182, want 2357082384653181"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.kernel] = true
		w, err := Build(tc.kernel, Params{Size: 16, Seed: 5})
		if err != nil {
			t.Fatalf("%s: Build: %v", tc.kernel, err)
		}
		res, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
		if err != nil {
			t.Fatalf("%s: emulate: %v", tc.kernel, err)
		}
		if err := w.Check(&res.Regs, res.Mem); err != nil {
			t.Fatalf("%s: check before corruption: %v", tc.kernel, err)
		}
		res.Mem.Write(tc.addr, res.Mem.Read(tc.addr, 8)+1, 8)
		err = w.Check(&res.Regs, res.Mem)
		if err == nil {
			t.Errorf("%s: corrupting mem[%#x] went unnoticed", tc.kernel, tc.addr)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: corrupting mem[%#x]: error %q, want %q", tc.kernel, tc.addr, err.Error(), tc.want)
		}
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("kernel %s has no corruption case", name)
		}
	}
}

// TestCheckAllocatesNothing pins that verifying a correct final state
// builds no labels: Check allocates nothing for any kernel.
func TestCheckAllocatesNothing(t *testing.T) {
	for _, name := range Names() {
		w := MustBuild(name, Params{Size: 16, Seed: 5})
		res, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
		if err != nil {
			t.Fatalf("%s: emulate: %v", name, err)
		}
		if a := testing.AllocsPerRun(5, func() { _ = w.Check(&res.Regs, res.Mem) }); a != 0 {
			t.Errorf("%s: Check made %.0f allocations, want 0", name, a)
		}
	}
}
