package experiments

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/sweep"
)

// Tolerances of the headline claims gate.  Each bound sits between the
// value the quick-size runs measure and the value at which the claim
// would no longer hold, so a modelling change may move IPC by a few
// percent, but a change that erases a claim fails.
const (
	// minConflictSpeedup bounds DSRE's geomean speedup over
	// storeset+flush on the conflict kernels (paper: 1.17× on SPEC;
	// measured 1.07× at quick sizes).  The claim is that DSRE wins where
	// loads conflict, so the bound asks for a clear win, not a tie.
	minConflictSpeedup = 1.03
	// minAllSpeedup bounds the same geomean over every kernel (measured
	// 1.02×): on the conflict-free kernels the two schemes tie, so DSRE
	// must never lose overall.
	minAllSpeedup = 1.0
	// minFractionOfOracle bounds DSRE's geomean fraction of oracle IPC
	// (paper: 82%; measured 1.000, so these kernels leave DSRE no gap at
	// quick sizes).  A 5% drop below the oracle is a regression in
	// recovery, not noise.
	minFractionOfOracle = 0.95
	// minDSREWindowGain bounds DSRE's IPC at 32 frames over 2 frames on
	// the kernels whose IPC grows with the window (measured 1.29× on
	// histogram, 1.44× on bank): the paper's claim that selective
	// re-execution scales to windows of thousands of instructions.
	minDSREWindowGain = 1.15
	// minDSREHoldsPeak bounds DSRE's IPC at 32 frames against its best
	// depth (measured 1.000 on both): a larger window must not hurt it.
	minDSREHoldsPeak = 0.98
	// maxFlushAtPeak bounds storeset+flush's IPC at 32 frames against its
	// best depth (measured 0.906 on histogram, 0.881 on bank): flushing
	// a larger window throws away more work, so flush falls off its peak.
	maxFlushAtPeak = 0.95
)

// windowKernels are the E4 kernels whose IPC depends on the window.
// Stencil's loop-carried chain bounds it at every depth (0.52–0.53 IPC
// from 2 to 32 frames for both schemes), so it supports neither side of
// the window claim.
var windowKernels = []string{"histogram", "bank"}

// TestHeadlineClaims asserts the paper's three headline claims at quick
// sizes: DSRE beats store-set with flush recovery on the conflict kernels
// (E2), it comes close to the perfect oracle (E3), and its IPC grows with
// the window while flush's falls off its peak (E4).
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the E2–E4 quick grids")
	}
	o := Opts{Quick: true, Engine: sweep.New(sweep.Options{})}

	_, _, sum := E2E3Speedup(o)
	if sum.DSREOverStoreSetConflict < minConflictSpeedup {
		t.Errorf("E2: DSRE over storeset+flush on conflict kernels = %.3fx, want >= %.2fx",
			sum.DSREOverStoreSetConflict, minConflictSpeedup)
	}
	if sum.DSREOverStoreSet < minAllSpeedup {
		t.Errorf("E2: DSRE over storeset+flush on all kernels = %.3fx, want >= %.2fx",
			sum.DSREOverStoreSet, minAllSpeedup)
	}
	if sum.DSREOfOracle < minFractionOfOracle {
		t.Errorf("E3: DSRE reaches %.3f of oracle, want >= %.2f", sum.DSREOfOracle, minFractionOfOracle)
	}

	// ipc[kernel][scheme] lists IPC at 2, 4, 8, 16 and 32 frames.
	ipc := map[string]map[string][]float64{}
	for _, row := range E4WindowScaling(o).Rows() {
		if ipc[row[0]] == nil {
			ipc[row[0]] = map[string][]float64{}
		}
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("E4 %s/%s: %v", row[0], row[1], err)
			}
			ipc[row[0]][row[1]] = append(ipc[row[0]][row[1]], v)
		}
	}
	for _, k := range windowKernels {
		dsre, flush := ipc[k]["dsre"], ipc[k]["storeset+flush"]
		if len(dsre) != 5 || len(flush) != 5 {
			t.Fatalf("E4 %s: want 5 depths per scheme, have dsre %v, flush %v", k, dsre, flush)
		}
		if g := dsre[4] / dsre[0]; g < minDSREWindowGain {
			t.Errorf("E4 %s: DSRE IPC %.3f at 32 frames is %.2fx its 2-frame %.3f, want >= %.2fx",
				k, dsre[4], g, dsre[0], minDSREWindowGain)
		}
		if r := dsre[4] / slices.Max(dsre); r < minDSREHoldsPeak {
			t.Errorf("E4 %s: DSRE IPC at 32 frames is %.3f of its peak %.3f, want >= %.2f", k, r, slices.Max(dsre), minDSREHoldsPeak)
		}
		if r := flush[4] / slices.Max(flush); r > maxFlushAtPeak {
			t.Errorf("E4 %s: storeset+flush IPC at 32 frames is %.3f of its peak %.3f, want <= %.2f", k, r, slices.Max(flush), maxFlushAtPeak)
		}
	}
}
