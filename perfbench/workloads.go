package main

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/sweep"
)

// A workloadDef is one fixed list of sweep job specs, derived only from the
// seed.  Why each exists is recorded in README.md; the short form is in
// BENCHMARK.json.
type workloadDef struct {
	name  string
	specs func(seed uint64, tiny bool) []sweep.JobSpec
}

var workloads = []workloadDef{
	{"recovery", recoverySpecs},
	{"streaming", streamingSpecs},
	{"wide-window", wideWindowSpecs},
	{"sweep", sweepSpecs},
}

func lookupWorkload(name string) (workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// tinySizes scales every kernel down to a few milliseconds of simulation.
// The sweep workload always uses them; the other workloads use them only
// under the tests' tiny mode.
var tinySizes = map[string]int{
	"bank": 128, "cursor": 128, "dotprod": 256, "hashmap": 128,
	"histogram": 128, "listsum": 128, "matmul": 6, "queue": 64,
	"sort": 16, "spmv": 32, "stencil": 64, "strmatch": 128,
	"treewalk": 128, "vecsum": 256,
}

// grid crosses kernels with schemes on one machine; size picks each
// kernel's size (0 is the kernel default).
func grid(kernels, schemes []string, seed uint64, base sweep.JobSpec, size func(string) int) []sweep.JobSpec {
	var specs []sweep.JobSpec
	for _, k := range kernels {
		for _, s := range schemes {
			sp := base
			sp.Workload, sp.Scheme, sp.Seed, sp.Size = k, s, seed, size(k)
			specs = append(specs, sp)
		}
	}
	return specs
}

func sizer(tiny bool, full map[string]int) func(string) int {
	return func(k string) int {
		if tiny {
			return tinySizes[k]
		}
		return full[k]
	}
}

var conflictKernels = []string{"histogram", "bank", "hashmap", "stencil", "cursor"}

func recoverySpecs(seed uint64, tiny bool) []sweep.JobSpec {
	schemes := []string{"aggressive+flush", "storeset+flush", "dsre", "storeset+dsre", "oracle"}
	return grid(conflictKernels, schemes, seed, sweep.JobSpec{}, sizer(tiny, nil))
}

func streamingSpecs(seed uint64, tiny bool) []sweep.JobSpec {
	kernels := []string{"vecsum", "dotprod", "strmatch", "spmv", "matmul", "sort", "listsum", "treewalk"}
	schemes := []string{"storeset+flush", "dsre", "oracle"}
	return grid(kernels, schemes, seed, sweep.JobSpec{}, sizer(tiny, nil))
}

// wideWindowSpecs runs at 32 frames (a 4K-instruction window) on an 8×8
// grid.  Stencil is cut to 1024 elements: at its default size its dsre
// point alone takes several seconds at this window.
func wideWindowSpecs(seed uint64, tiny bool) []sweep.JobSpec {
	kernels := []string{"histogram", "hashmap", "stencil", "vecsum", "spmv"}
	schemes := []string{"storeset+flush", "dsre", "oracle"}
	machine := sweep.JobSpec{Frames: 32, GridWidth: 8, GridHeight: 8}
	return grid(kernels, schemes, seed, machine, sizer(tiny, map[string]int{"stencil": 1024}))
}

// sweepSpecs is every kernel × every scheme × three seeds at tiny sizes,
// plus three alias spellings per (kernel, seed) that the engine must
// deduplicate onto points already in the grid.
func sweepSpecs(seed uint64, _ bool) []sweep.JobSpec {
	kernels := repro.Workloads()
	var specs []sweep.JobSpec
	for d := uint64(0); d < 3; d++ {
		specs = append(specs, grid(kernels, repro.Schemes(), seed+d, sweep.JobSpec{}, sizer(true, nil))...)
	}
	for d := uint64(0); d < 3; d++ {
		for _, k := range kernels {
			base := sweep.JobSpec{Workload: k, Seed: seed + d, Size: tinySizes[k]}
			dflt, storeset, frames := base, base, base
			dflt.Scheme = ""
			storeset.Scheme = "storeset"
			frames.Scheme, frames.Frames = "dsre", repro.DefaultMachine().Frames
			specs = append(specs, dflt, storeset, frames)
		}
	}
	return specs
}
