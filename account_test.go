package repro_test

import (
	"testing"

	"repro"
	"repro/internal/account"
)

// TestAccountingConservationMatrix is the end-to-end version of the CPI
// conservation invariant: across conflict-heavy and streaming kernels under
// the paper's three interesting schemes, every simulated cycle must land in
// exactly one bucket, and the forensic audit must agree with the
// simulator's own recovery counters.  The same invariant is enforced at run
// time under the dsre_assert build tag; this test keeps it on the default
// build too.
func TestAccountingConservationMatrix(t *testing.T) {
	kernels := []string{"vecsum", "histogram", "bank", "hashmap"}
	schemes := []string{"storeset+flush", "dsre", "oracle"}
	for _, k := range kernels {
		for _, s := range schemes {
			t.Run(k+"/"+s, func(t *testing.T) {
				res, err := repro.Run(repro.Config{Workload: k, Scheme: s, Size: 256})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := res.Sim.Acct.Total(), res.Cycles*account.SlotsPerCycle; got != want {
					t.Fatalf("CPI buckets sum to %d, want %d (cycles %d × %d slots)",
						got, want, res.Cycles, account.SlotsPerCycle)
				}
				f := &res.Sim.Forensics
				if got := f.FlushEvents + f.WaveEvents; got != res.Sim.LSQ.Violations {
					t.Errorf("flush %d + wave %d events, LSQ violations %d",
						f.FlushEvents, f.WaveEvents, res.Sim.LSQ.Violations)
				}
				if f.VPEvents != res.Sim.VPCorrections {
					t.Errorf("VP events %d, VP corrections %d", f.VPEvents, res.Sim.VPCorrections)
				}
				if got := f.WaveReexecs + f.UnattributedReexecs; got != res.Sim.Reexecs {
					t.Errorf("wave reexecs %d + unattributed %d, stats reexecs %d",
						f.WaveReexecs, f.UnattributedReexecs, res.Sim.Reexecs)
				}
				if s == "dsre" {
					if got := f.WaveEvents + f.VPEvents; got != res.Sim.WaveCount {
						t.Errorf("wave %d + VP %d events, wave count %d",
							f.WaveEvents, f.VPEvents, res.Sim.WaveCount)
					}
				}
				if f.Events > 0 && f.MaxDepth < 1 {
					t.Errorf("%d forensic events but max depth %d", f.Events, f.MaxDepth)
				}
				var profiled int64
				for _, p := range f.Loads {
					profiled += p.Events
					if p.Events != p.Flushes+p.Waves+p.VPRepairs {
						t.Errorf("load %s: events %d != flushes %d + waves %d + vp %d",
							p.LoadPC, p.Events, p.Flushes, p.Waves, p.VPRepairs)
					}
				}
				if profiled > int64(f.Events) {
					t.Errorf("profiled events %d exceed total %d", profiled, f.Events)
				}
			})
		}
	}
}

// TestWaveSizeHistCountsWaves: the wave-size histogram holds one
// observation per wave or VP repair and sums their attributed
// re-executions, so re-executions under tag zero or a flush's tag make no
// pseudo-wave.
func TestWaveSizeHistCountsWaves(t *testing.T) {
	for _, k := range conflictKernels {
		t.Run(k, func(t *testing.T) {
			res, err := repro.Run(repro.Config{Workload: k, Scheme: "dsre", Size: 256})
			if err != nil {
				t.Fatal(err)
			}
			h := res.Sim.WaveSizeHist
			if res.Sim.WaveCount == 0 {
				t.Fatal("no waves; the check is vacuous")
			}
			if h.N != res.Sim.WaveCount || h.Sum != res.Sim.Forensics.WaveReexecs {
				t.Errorf("histogram N %d, sum %d; want %d waves, %d wave re-executions",
					h.N, h.Sum, res.Sim.WaveCount, res.Sim.Forensics.WaveReexecs)
			}
		})
	}
}
