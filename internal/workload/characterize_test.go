package workload

import (
	"testing"

	"repro/internal/emu"
)

// conflictClass records whether a kernel is supposed to exhibit in-window
// store→load dependences — the property the evaluation's kernel-suite
// design rests on.  A kernel drifting out of its class (e.g. after a
// refactor changes its memory layout) silently invalidates the experiments,
// so this test pins the classification.
var conflictClass = map[string]bool{
	"bank":      true,
	"cursor":    true,
	"hashmap":   true,
	"histogram": true,
	"queue":     true,
	"stencil":   true,

	"dotprod":  false,
	"listsum":  false, // node values are visited once; no revisits
	"matmul":   false,
	"sort":     true, // cross-pass unit-distance conflicts
	"spmv":     false,
	"strmatch": false,
	"treewalk": true, // shared path-prefix counters
	"vecsum":   false,
}

// TestConflictClassification verifies each kernel's dependence profile
// matches its documented class, using the emulator's oracle pre-pass.
func TestConflictClassification(t *testing.T) {
	for _, name := range Names() {
		want, ok := conflictClass[name]
		if !ok {
			t.Errorf("%s: kernel not classified; update conflictClass", name)
			continue
		}
		size := 512
		switch name {
		case "matmul":
			size = 12
		case "sort":
			size = 48
		}
		w := MustBuild(name, Params{Size: size})
		res, err := w.RunEmulator(emu.Options{CollectOracle: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// "Short-distance" dependences (within ~256 dynamic memory ops)
		// are the ones a 1024-instruction window can trip over.
		var short int64
		for i, n := range res.DepDistance {
			if i <= 8 { // 2^8 = 256 memops
				short += n
			}
		}
		frac := float64(short) / float64(res.Loads)
		const threshold = 0.02
		got := frac >= threshold
		if got != want {
			t.Errorf("%s: %.1f%% of loads have short-distance dependences; classified conflict=%v",
				name, 100*frac, want)
		}
	}
}

// TestKernelDescriptions ensures every kernel documents itself.
func TestKernelDescriptions(t *testing.T) {
	for _, name := range Names() {
		w := MustBuild(name, Params{Size: 64})
		if w.Description == "" {
			t.Errorf("%s: empty description", name)
		}
		if w.Analog == "" {
			t.Errorf("%s: empty SPEC analog", name)
		}
		if w.Check == nil {
			t.Errorf("%s: no reference check", name)
		}
	}
}

// TestSeedsChangeData ensures the Seed parameter actually varies workload
// content (guarding against a kernel ignoring it).
func TestSeedsChangeData(t *testing.T) {
	for _, name := range []string{"histogram", "bank", "hashmap", "vecsum", "listsum"} {
		a := MustBuild(name, Params{Size: 128, Seed: 1})
		b := MustBuild(name, Params{Size: 128, Seed: 2})
		if a.Mem.Equal(b.Mem) {
			t.Errorf("%s: different seeds produced identical memory images", name)
		}
	}
}

// TestUnrollChangesBlockSize ensures Unroll has its documented effect.
func TestUnrollChangesBlockSize(t *testing.T) {
	small := MustBuild("vecsum", Params{Size: 128, Unroll: 2})
	big := MustBuild("vecsum", Params{Size: 128, Unroll: 8})
	if len(big.Program.Blocks[0].Insts) <= len(small.Program.Blocks[0].Insts) {
		t.Error("larger unroll did not grow the block")
	}
}
