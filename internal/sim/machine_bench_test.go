package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// benchMachine is the shared body of the throughput benchmarks: one kernel
// at one size under aggressive issue and DSRE, event-driven or dense
// reference ticking, optionally on a reshaped machine (shape may also
// change the scheme), reporting simulated megacycles per wall second (the
// headline CI tracks) alongside the per-run counters.
func benchMachine(b *testing.B, kernel string, size int, dense bool, shape func(*Config)) {
	w := workload.MustBuild(kernel, workload.Params{Size: size})
	er, _ := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = core.RecoverDSRE
		if shape != nil {
			shape(&cfg)
		}
		mc, err := newTicked(cfg, w.Program, &w.Regs, w.Mem, nil, dense)
		if err != nil {
			b.Fatal(err)
		}
		r, err := mc.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Stats.Cycles
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)*float64(b.N)/1e6/sec, "mcycles/s")
	}
	b.ReportMetric(float64(cycles), "sim-cycles/run")
	b.ReportMetric(float64(er.Insts), "sim-insts/run")
}

// BenchmarkMachine measures whole-machine simulation throughput in
// simulated cycles per wall second on the event-driven core, cycle
// accounting included, as in every verified run.
func BenchmarkMachine(b *testing.B) {
	for _, k := range []string{"histogram", "vecsum"} {
		b.Run(k, func(b *testing.B) { benchMachine(b, k, 1024, false, nil) })
	}
	// The paper's 4K-instruction window (32 frames on an 8×8 grid) on a
	// conflict kernel guards the per-cycle costs that grow with window
	// depth, which the default 8-frame machine cannot show.
	b.Run("stencil/frames=32", func(b *testing.B) {
		benchMachine(b, "stencil", 256, false, func(c *Config) {
			c.Frames, c.GridWidth, c.GridHeight = 32, 8, 8
		})
	})
	// Twice that window, at a size where it turns over, guards the claim
	// that per-event host cost does not grow with window depth.
	b.Run("stencil/frames=64", func(b *testing.B) {
		benchMachine(b, "stencil", 1024, false, func(c *Config) {
			c.Frames, c.GridWidth, c.GridHeight = 64, 8, 8
		})
	})
	// Aggressive issue never parks a load by policy; store-set issue at
	// the wide window keeps hundreds of loads parked on stores.
	b.Run("histogram/storeset/frames=32", func(b *testing.B) {
		benchMachine(b, "histogram", 1024, false, func(c *Config) {
			c.Policy, c.Recovery = core.IssueStoreSet, core.RecoverFlush
			c.Frames, c.GridWidth, c.GridHeight = 32, 8, 8
		})
	})
	// A sweep-sized point: histogram at the 128 elements a sweep grid
	// runs, a few milliseconds of simulation, so building the machine
	// (inside the timed loop, as for every sub-benchmark) is a visible
	// share of each run.
	b.Run("histogram/size=128", func(b *testing.B) { benchMachine(b, "histogram", 128, false, nil) })
}

// BenchmarkMachineNew measures building a machine, accounting state
// included, once per issue policy.  Construction should cost what the run touches, not what the machine
// could hold: the caches carve sets on first fill and the predictor tables
// start as zeroed memory.
func BenchmarkMachineNew(b *testing.B) {
	w := workload.MustBuild("histogram", workload.Params{Size: 128})
	er, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: true, TraceBlocks: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []core.IssuePolicy{core.IssueConservative, core.IssueAggressive, core.IssueStoreSet, core.IssueOracle} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Policy = p
			cfg.Recovery = core.RecoverDSRE
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, w.Program, &w.Regs, w.Mem, er.Oracle, er.BlockTrace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineDense runs the same kernels on the dense path — every
// tile stepped every cycle, no fast-forward, the pre-event-core behaviour — so the
// event-driven speedup is a single benchstat (or mcycles/s ratio) away.
func BenchmarkMachineDense(b *testing.B) {
	for _, k := range []string{"histogram", "vecsum"} {
		b.Run(k, func(b *testing.B) { benchMachine(b, k, 1024, true, nil) })
	}
}

// BenchmarkMachineSampler measures telemetry sampling overhead against the
// plain machine: "off" never closes a window, the numeric variants keep
// the series at that window size.  DESIGN.md records the measured cost.
func BenchmarkMachineSampler(b *testing.B) {
	w := workload.MustBuild("histogram", workload.Params{Size: 1024})
	for _, every := range []int64{0, 1000, 100, 10} {
		name := "off"
		if every > 0 {
			name = fmt.Sprintf("every%d", every)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Policy = core.IssueAggressive
				cfg.Recovery = core.RecoverDSRE
				mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				mc.SetSampleEvery(every)
				if _, err := mc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
