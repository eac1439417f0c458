package workload

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
)

// TestKernelsAgainstGoReference runs every kernel at default size through
// the architectural emulator and validates the final state against the
// workload's straight-line Go reference.  This is the ground-truth test for
// both the kernels and the emulator.
func TestKernelsAgainstGoReference(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := Build(name, Params{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			res, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
			if err != nil {
				t.Fatalf("emulate: %v", err)
			}
			if err := w.Check(&res.Regs, res.Mem); err != nil {
				t.Fatalf("check: %v", err)
			}
			if res.Blocks == 0 || res.Insts == 0 {
				t.Fatalf("degenerate run: %d blocks, %d insts", res.Blocks, res.Insts)
			}
			t.Logf("%s: %d blocks, %d insts, %d loads, %d stores",
				name, res.Blocks, res.Insts, res.Loads, res.Stores)
		})
	}
}

// TestKernelsSmallSizes exercises non-default sizes, unrolls and seeds so
// size-rounding and unroll edge cases are covered.
func TestKernelsSmallSizes(t *testing.T) {
	cases := []Params{
		{Size: 16, Unroll: 1, Seed: 7},
		{Size: 33, Unroll: 2, Seed: 42},
		{Size: 100, Unroll: 5, Seed: 3},
	}
	for _, name := range Names() {
		for _, p := range cases {
			w, err := Build(name, p)
			if err != nil {
				t.Fatalf("%s %+v: Build: %v", name, p, err)
			}
			res, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
			if err != nil {
				t.Fatalf("%s %+v: emulate: %v", name, p, err)
			}
			if err := w.Check(&res.Regs, res.Mem); err != nil {
				t.Fatalf("%s %+v: check: %v", name, p, err)
			}
		}
	}
}

// TestKernelsValidate re-validates every kernel program explicitly.
func TestKernelsValidate(t *testing.T) {
	for _, name := range Names() {
		w := MustBuild(name, Params{})
		if err := program.Validate(w.Program); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestOracleCollection checks that the oracle table is populated for
// kernels with store→load dependences and that distances look sane.
func TestOracleCollection(t *testing.T) {
	w := MustBuild("stencil", Params{Size: 256})
	res, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DependentLoads() == 0 {
		t.Fatal("stencil produced no oracle entries despite loop-carried stores")
	}
	// Every stencil load of a[i-1] conflicts with the store from the
	// previous iteration: distance must be small.
	short := int64(0)
	for _, n := range res.DepDistance[:4] {
		short += n
	}
	if short == 0 {
		t.Errorf("expected short dependence distances, histogram %v", res.DepDistance)
	}

	w2 := MustBuild("vecsum", Params{Size: 256})
	res2, err := emu.Run(w2.Program, &w2.Regs, w2.Mem, emu.Options{CollectOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	// vecsum's only store is the final result; loads never conflict.
	if n := res2.DependentLoads(); n != 0 {
		t.Errorf("vecsum should have no store→load dependences, got %d", n)
	}
}

// TestBuildUnknown covers the registry error path.
func TestBuildUnknown(t *testing.T) {
	if _, err := Build("no-such-kernel", Params{}); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}
