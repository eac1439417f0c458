package sim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/lsq"
	"repro/internal/workload"
)

// lsqWork runs one kernel at size 1024 on an 8×8 grid with the given
// window depth and returns the LSQ's query work counters.
func lsqWork(t *testing.T, kernel string, policy core.IssuePolicy, recovery core.RecoveryScheme, frames int) lsq.Work {
	t.Helper()
	w := workload.MustBuild(kernel, workload.Params{Size: 1024, Seed: 1})
	er, err := emu.Run(w.Program, &w.Regs, w.Mem, emu.Options{CollectOracle: policy == core.IssueOracle})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Policy, cfg.Recovery = policy, recovery
	cfg.Frames, cfg.GridWidth, cfg.GridHeight = frames, 8, 8
	mc, err := New(cfg, w.Program, &w.Regs, w.Mem, er.Oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	return mc.q.Work()
}

// TestLSQWorkBounds pins how much of the window the LSQ's three event
// queries visit per answer, in a 2-frame and a 32-frame window: parked
// loads examined per load TakeReady issues (histogram under store-set
// issue with flush recovery), candidates and stores examined per load
// TakeCertifiable certifies (stencil under DSRE) and loads examined per
// store re-check (histogram under DSRE).  The counts are deterministic, so
// a return to rescanning the window fails here, not only in a timing.
func TestLSQWorkBounds(t *testing.T) {
	const maxReady, maxCert, maxRecheck = 5, 10, 2.5
	for _, frames := range []int{2, 32} {
		t.Run(fmt.Sprintf("frames=%d", frames), func(t *testing.T) {
			ready := lsqWork(t, "histogram", core.IssueStoreSet, core.RecoverFlush, frames)
			cert := lsqWork(t, "stencil", core.IssueAggressive, core.RecoverDSRE, frames)
			recheck := lsqWork(t, "histogram", core.IssueAggressive, core.RecoverDSRE, frames)
			check := func(what string, visits, answers int64, bound float64) {
				t.Helper()
				if answers == 0 {
					t.Fatalf("%s: no answers; the bound is vacuous", what)
				}
				per := float64(visits) / float64(answers)
				t.Logf("%s: %d visits / %d = %.2f", what, visits, answers, per)
				if per > bound {
					t.Errorf("%s: %.2f visits per answer, want <= %g", what, per, bound)
				}
			}
			check("parked loads per issued load", ready.ReadyVisits, ready.ReadyIssued, maxReady)
			check("certification visits per certified load", cert.CertVisits, cert.Certified, maxCert)
			check("loads per store re-check", recheck.RecheckVisits, recheck.Rechecks, maxRecheck)
		})
	}
}
