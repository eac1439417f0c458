package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// fastpathScheme is one (policy, recovery) point of the differential matrix.
type fastpathScheme struct {
	name     string
	policy   core.IssuePolicy
	recovery core.RecoveryScheme
}

var fastpathSchemes = []fastpathScheme{
	{"storeset+flush", core.IssueStoreSet, core.RecoverFlush},
	{"dsre", core.IssueAggressive, core.RecoverDSRE},
	{"oracle", core.IssueOracle, core.RecoverDSRE},
}

// runTickVariant runs one kernel under one scheme with the event-driven
// fast path (slow=false) or the dense reference path (slow=true), with
// accounting and sampling optionally attached.  The workload is rebuilt
// fresh for every call so both arms start from identical state.
func runTickVariant(t *testing.T, kernel string, size int, s fastpathScheme, slow, acct bool, sampleEvery int64) (*Result, []Sample) {
	t.Helper()
	w := workload.MustBuild(kernel, workload.Params{Size: size})
	var oracle map[emu.MemRef]emu.MemRef
	if s.policy == core.IssueOracle {
		gw := workload.MustBuild(kernel, workload.Params{Size: size})
		golden, err := emu.Run(gw.Program, &gw.Regs, gw.Mem, emu.Options{CollectOracle: true})
		if err != nil {
			t.Fatal(err)
		}
		oracle = golden.Oracle
	}
	cfg := DefaultConfig()
	cfg.Policy = s.policy
	cfg.Recovery = s.recovery
	cfg.SlowTick = slow
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acct {
		mc.EnableAccounting()
	}
	var samples []Sample
	if sampleEvery > 0 {
		mc.SetSampler(sampleEvery, sampleFunc(func(s Sample) { samples = append(samples, s) }))
	}
	r, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, samples
}

type sampleFunc func(Sample)

func (f sampleFunc) Sample(s Sample) { f(s) }

// TestFastPathByteIdentical is the central differential contract: the
// event-driven core (active-tile worklists, scheduled injections, idle-gap
// fast-forward, object pooling) must produce results byte-identical to
// stepping every structure every cycle — same architectural state, same
// cycle count, same statistics to the last counter, same telemetry
// windows, same CPI stack.  Any divergence means a fast path changed
// machine semantics instead of skipping provable no-ops.
func TestFastPathByteIdentical(t *testing.T) {
	for _, kernel := range []string{"histogram", "vecsum", "listsum"} {
		for _, s := range fastpathSchemes {
			for _, acct := range []bool{false, true} {
				name := kernel + "/" + s.name
				if acct {
					name += "/acct"
				}
				t.Run(name, func(t *testing.T) {
					const sampleEvery = 100
					fast, fastSamples := runTickVariant(t, kernel, 256, s, false, acct, sampleEvery)
					slow, slowSamples := runTickVariant(t, kernel, 256, s, true, acct, sampleEvery)

					if fast.Regs != slow.Regs {
						t.Error("architectural registers diverged")
					}
					if !fast.Mem.Equal(slow.Mem) {
						addr, _ := fast.Mem.FirstDiff(slow.Mem)
						t.Errorf("memory diverged at %#x", addr)
					}
					if fast.Blocks != slow.Blocks {
						t.Errorf("blocks: fast %d, slow %d", fast.Blocks, slow.Blocks)
					}
					if !reflect.DeepEqual(fast.Stats, slow.Stats) {
						fj, _ := json.Marshal(fast.Stats)
						sj, _ := json.Marshal(slow.Stats)
						t.Errorf("stats diverged:\nfast: %s\nslow: %s", fj, sj)
					}
					// Byte identity of the serialized form, which is what
					// lands in dsre-report/v1 artifacts.
					fj, err := json.Marshal(fast.Stats)
					if err != nil {
						t.Fatal(err)
					}
					sj, err := json.Marshal(slow.Stats)
					if err != nil {
						t.Fatal(err)
					}
					if string(fj) != string(sj) {
						t.Error("stats JSON not byte-identical")
					}
					if !reflect.DeepEqual(fastSamples, slowSamples) {
						t.Errorf("telemetry windows diverged: fast %d samples, slow %d",
							len(fastSamples), len(slowSamples))
					}
					if acct {
						// CPI conservation must hold on the fast path even
						// though most cycles were never individually stepped.
						if got, want := fast.Stats.Acct.Total(), fast.Stats.Cycles*account.SlotsPerCycle; got != want {
							t.Errorf("fast-path CPI buckets sum to %d, want %d (cycles %d)",
								got, want, fast.Stats.Cycles)
						}
					}
				})
			}
		}
	}
}

// TestDeadlockUnderFastPath pins that idle-gap fast-forward does not skip
// over the deadlock detector: a machine that stops committing must trip the
// watchdog at exactly the same cycle as the dense reference, with the dump
// disclosing how many of those cycles were fast-forwarded.
func TestDeadlockUnderFastPath(t *testing.T) {
	run := func(slow bool) error {
		w := workload.MustBuild("histogram", workload.Params{Size: 64})
		cfg := DefaultConfig()
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = core.RecoverDSRE
		cfg.DeadlockCycles = 8 // no block can commit this early
		cfg.SlowTick = slow
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = mc.Run()
		return err
	}
	fastErr, slowErr := run(false), run(true)
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected deadlock on both paths (fast=%v slow=%v)", fastErr, slowErr)
	}
	firstLine := func(err error) string {
		return strings.SplitN(err.Error(), "\n", 2)[0]
	}
	if firstLine(fastErr) != firstLine(slowErr) {
		t.Errorf("deadlock fired differently:\nfast: %s\nslow: %s",
			firstLine(fastErr), firstLine(slowErr))
	}
	if !strings.Contains(fastErr.Error(), "idle-skipped=") {
		t.Errorf("fast-path deadlock dump does not disclose fast-forwarded cycles:\n%s", fastErr)
	}
	if strings.Contains(slowErr.Error(), "idle-skipped=") {
		t.Errorf("slow-path dump claims fast-forwarded cycles:\n%s", slowErr)
	}
}

// TestMaxCyclesUnderFastPath pins the other run-loop boundary: fast-forward
// must not jump past the cycle budget, and both paths must give up at the
// same cycle.
func TestMaxCyclesUnderFastPath(t *testing.T) {
	run := func(slow bool) error {
		w := workload.MustBuild("histogram", workload.Params{Size: 1024})
		cfg := DefaultConfig()
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = core.RecoverDSRE
		cfg.MaxCycles = 500
		cfg.SlowTick = slow
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = mc.Run()
		return err
	}
	fastErr, slowErr := run(false), run(true)
	if fastErr == nil || slowErr == nil {
		t.Fatalf("expected budget exhaustion on both paths (fast=%v slow=%v)", fastErr, slowErr)
	}
	if fastErr.Error() != slowErr.Error() {
		t.Errorf("budget exhaustion differs:\nfast: %s\nslow: %s", fastErr, slowErr)
	}
}

// TestSteadyStateZeroAllocs is the allocation guard for the simulator hot
// loop: once warmed (scratch buffers grown, pools primed), stepping the
// machine with telemetry off must not allocate at all, and a 100-cycle
// sampling window must stay within a documented small budget (the sampler
// appends one Sample per window; everything per-cycle is allocation-free).
func TestSteadyStateZeroAllocs(t *testing.T) {
	warm := func(sampleEvery int64) *Machine {
		// vecsum under aggressive+DSRE is violation-free: no wave-tag map
		// growth, so steady state is genuinely steady.
		w := workload.MustBuild("vecsum", workload.Params{Size: 4096})
		cfg := DefaultConfig()
		cfg.Policy = core.IssueAggressive
		cfg.Recovery = core.RecoverDSRE
		mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sampleEvery > 0 {
			mc.SetSampler(sampleEvery, &discardSink{})
		}
		for i := 0; i < 20000 && !mc.done; i++ {
			mc.step()
		}
		if mc.done {
			t.Fatal("workload finished during warmup; grow it")
		}
		return mc
	}

	t.Run("telemetry-off", func(t *testing.T) {
		mc := warm(0)
		avg := testing.AllocsPerRun(2000, func() {
			if !mc.done {
				mc.step()
			}
		})
		if avg != 0 {
			t.Errorf("steady-state step allocates %.3f objects/cycle, want 0", avg)
		}
	})
	t.Run("sampling-on", func(t *testing.T) {
		mc := warm(100)
		// Budget: ≤0.05 allocs/cycle, i.e. a handful of allocations per
		// 100-cycle window (sampler bookkeeping), none in the cycle path.
		avg := testing.AllocsPerRun(2000, func() {
			if !mc.done {
				mc.step()
			}
		})
		if avg > 0.05 {
			t.Errorf("sampling-on step allocates %.3f objects/cycle, budget 0.05", avg)
		}
	})
}
