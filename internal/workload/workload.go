// Package workload provides the benchmark kernels used throughout the
// evaluation.  The TRIPS paper ran SPEC CPU2000 binaries compiled by the
// TRIPS compiler; neither is available, so each kernel here is a hand-built
// EDGE program that reproduces the memory behaviour of one SPEC class
// (pointer chasing, streaming, hashing, in-place stencils, ...).  The
// store→load aliasing rate and dependence distance — the properties that
// drive dependence-speculation results — are first-class parameters.
//
// Every workload carries a Go-side reference check (Check) so that the
// architectural emulator itself is validated against straight-line Go, and
// the cycle simulator is validated against the emulator.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Standard memory-layout bases shared by the kernels.
const (
	ResultBase = 0x8000   // kernels store their final scalars here
	DataBase   = 0x100000 // first input/working array
	DataBase2  = 0x400000 // second array
	DataBase3  = 0x800000 // third array
)

// Params scales a workload.
type Params struct {
	// Size is the element count / iteration scale.  Zero selects the
	// kernel's default, chosen to commit a few thousand blocks.
	Size int
	// Unroll is the number of logical iterations per EDGE block for kernels
	// that support unrolling.  Zero selects the kernel default.  Larger
	// blocks mean larger instruction windows at the same in-flight block
	// count, matching how the TRIPS compiler built hyperblocks.
	Unroll int
	// Seed drives all pseudo-random data and access patterns.  Zero means 1.
	Seed uint64
}

func (p Params) withDefaults(size, unroll int) Params {
	if p.Size == 0 {
		p.Size = size
	}
	if p.Unroll == 0 {
		p.Unroll = unroll
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// clampUnroll caps the unroll factor at the largest value for which the
// kernel's block fits the isa.MaxInsts limit after fanout expansion.
func (p Params) clampUnroll(max int) Params {
	if p.Unroll > max {
		p.Unroll = max
	}
	return p
}

// Workload is a ready-to-run kernel: program plus initial machine state.
type Workload struct {
	Name        string
	Analog      string // which SPEC-2000 class the kernel stands in for
	Description string
	Params      Params
	Program     *isa.Program
	Regs        [isa.NumRegs]int64
	Mem         *mem.Memory

	// Check validates the final architectural state against a straight-line
	// Go implementation of the kernel.
	Check func(regs *[isa.NumRegs]int64, m *mem.Memory) error
}

// RunEmulator runs the architectural emulator on the workload's initial
// state, returning the golden result (and, per opt, the oracle table,
// block trace or store trace).
func (w *Workload) RunEmulator(opt emu.Options) (*emu.Result, error) {
	return emu.Run(w.Program, &w.Regs, w.Mem, opt)
}

// Builder constructs a workload from parameters.
type Builder func(Params) (*Workload, error)

type entry struct {
	build  Builder
	analog string
}

var registry = map[string]entry{}

func register(name, analog string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = entry{build: b, analog: analog}
}

// Names returns the registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name is a registered workload.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Analog returns the SPEC-class analog string for a workload name.
func Analog(name string) string { return registry[name].analog }

// Build constructs the named workload.
func Build(name string, p Params) (*Workload, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kernel %q (have %v)", name, Names())
	}
	w, err := e.build(p)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	w.Name = name
	w.Analog = e.analog
	return w, nil
}

// MustBuild is Build that panics on error, for tests and benches.
func MustBuild(name string, p Params) *Workload {
	w, err := Build(name, p)
	if err != nil {
		panic(err)
	}
	return w
}

// splitmix64 is the PRNG used for all data initialisation.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// LCG constants mirrored by the in-ISA PRNG used by random-access kernels.
const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

func lcgNext(x int64) int64 { return x*lcgMul + lcgAdd }

// checkU64 compares one 8-byte memory word against an expected value.  The
// word's label is format applied to args, built only when the check fails:
// verifying a run formats nothing.
func checkU64(m *mem.Memory, addr uint64, want int64, format string, args ...int) error {
	if got := m.Read(addr, 8); got != want {
		boxed := make([]any, len(args))
		for i, v := range args {
			boxed[i] = v
		}
		return fmt.Errorf("%s: mem[%#x] = %d, want %d", fmt.Sprintf(format, boxed...), addr, got, want)
	}
	return nil
}
