package sim

import (
	"strings"
	"testing"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/workload"
)

// runAccounted runs a workload on a plain machine, which always accounts,
// and returns the result.
func runAccounted(t *testing.T, kernel string, size int, rec core.RecoveryScheme) *Result {
	t.Helper()
	w := workload.MustBuild(kernel, workload.Params{Size: size})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	cfg.Recovery = rec
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAccountingConservation checks the CPI-stack invariant directly on the
// machine: every simulated cycle lands in exactly one bucket, so the
// buckets sum to Cycles × SlotsPerCycle, and the forensic audit agrees
// with the machine's own recovery counters.
func TestAccountingConservation(t *testing.T) {
	for _, rec := range []core.RecoveryScheme{core.RecoverFlush, core.RecoverDSRE} {
		t.Run(rec.String(), func(t *testing.T) {
			r := runAccounted(t, "histogram", 256, rec)
			s := &r.Stats
			if got, want := s.Acct.Total(), s.Cycles*account.SlotsPerCycle; got != want {
				t.Fatalf("CPI buckets sum to %d, want %d (cycles %d)", got, want, s.Cycles)
			}
			if s.Acct.Commit == 0 {
				t.Error("commit bucket empty on a completing run")
			}
			f := &s.Forensics
			if got := f.FlushEvents + f.WaveEvents; got != s.LSQ.Violations {
				t.Errorf("flush+wave events = %d, LSQ violations = %d", got, s.LSQ.Violations)
			}
			if f.VPEvents != s.VPCorrections {
				t.Errorf("VP events = %d, VP corrections = %d", f.VPEvents, s.VPCorrections)
			}
			if got := f.WaveReexecs + f.UnattributedReexecs; got != s.Reexecs {
				t.Errorf("attributed %d + unattributed %d reexecs, stats %d",
					f.WaveReexecs, f.UnattributedReexecs, s.Reexecs)
			}
			if s.LSQ.Violations > 0 && len(f.Loads) == 0 {
				t.Error("violations occurred but no per-PC load profiles")
			}
		})
	}
}

// TestPlainRunAccounts pins that observation is part of every machine: a
// bare New + Run, with no setup call, conserves the CPI stack and leaves a
// flight recorder to dump.
func TestPlainRunAccounts(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	cfg.Recovery = core.RecoverDSRE
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats.Acct.Total(), r.Stats.Cycles*account.SlotsPerCycle; got != want {
		t.Errorf("CPI buckets sum to %d, want %d (cycles %d)", got, want, r.Stats.Cycles)
	}
	if mc.FlightDump() == "" {
		t.Error("empty flight-recorder dump after a run")
	}
	if len(r.Samples) != 0 {
		t.Errorf("%d sample windows with sampling never turned on", len(r.Samples))
	}
}

// TestAccountingMatchesEmulator ties the commit bucket to ground truth:
// with SlotsPerCycle == 1 and one block commit per cycle, the commit bucket
// equals the number of committed blocks, which the emulator pins.
func TestAccountingMatchesEmulator(t *testing.T) {
	w := workload.MustBuild("vecsum", workload.Params{Size: 128})
	er, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild: emu.Run consumed the register/memory state.
	w = workload.MustBuild("vecsum", workload.Params{Size: 128})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	cfg.Recovery = core.RecoverDSRE
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Acct.Commit != er.Blocks {
		t.Errorf("commit bucket = %d, emulator committed %d blocks",
			r.Stats.Acct.Commit, er.Blocks)
	}
}

// TestDeadlockDumpCarriesForensics forces a protocol "deadlock" with an
// absurdly small commit timeout and checks the diagnostic dump carries the
// flight-recorder ring, the partial CPI stack, and a flushed telemetry
// window — the three artifacts a post-mortem needs.
func TestDeadlockDumpCarriesForensics(t *testing.T) {
	w := workload.MustBuild("histogram", workload.Params{Size: 64})
	cfg := DefaultConfig()
	cfg.Policy = core.IssueAggressive
	cfg.Recovery = core.RecoverDSRE
	// The first block needs fetch + execution round trips, so no commit can
	// happen this early: the watchdog must fire.
	cfg.DeadlockCycles = 8
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetSampleEvery(1000)
	_, err = mc.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	for _, want := range []string{
		"protocol deadlock",
		"cycle accounting:",
		"flight recorder (last",
		"telemetry last window:",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock dump missing %q:\n%s", want, msg)
		}
	}
	if len(mc.samples) == 0 {
		t.Error("deadlock dump did not flush the partial telemetry window")
	}
}
