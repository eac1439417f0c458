package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// sequentialEngine executes every point one at a time through plain
// repro.Run — no worker pool, no workload memoization, no cache.  It is
// the reference the sweep path is pinned against.
func sequentialEngine() *sweep.Engine {
	return sweep.New(sweep.Options{
		Workers: 1,
		Runner: func(ctx context.Context, spec sweep.JobSpec) (*telemetry.Report, error) {
			r, err := repro.RunContext(ctx, spec.Config())
			if err != nil {
				return nil, err
			}
			return r.Report(), nil
		},
	})
}

// allTables renders every experiment (E1 is a static config table and
// needs no engine) and the E2/E3 headline summary under one Opts.
func allTables(o Opts) map[string]string {
	m := make(map[string]string)
	t2, t3, sum := E2E3Speedup(o)
	m["E2"] = t2.String()
	m["E3"] = t3.String()
	m["E2E3-summary"] = fmt.Sprintf("%.6f %.6f %.6f",
		sum.DSREOverStoreSet, sum.DSREOverStoreSetConflict, sum.DSREOfOracle)
	m["E4"] = E4WindowScaling(o).String()
	m["E5"] = E5Misspec(o).String()
	m["E6"] = E6CommitWave(o).String()
	m["E7"] = E7Suppression(o).String()
	m["E8"] = E8WaveSizes(o).String()
	m["E9"] = E9HopLatency(o).String()
	m["E10"] = E10StoreSetSize(o).String()
	m["E11"] = E11BlockPredictors(o).String()
	m["E12"] = E12WorkBreakdown(o).String()
	m["E13"] = E13Placement(o).String()
	m["E14"] = E14DTileBanks(o).String()
	m["E15"] = E15LSQCapacity(o).String()
	m["E16"] = E16ValuePrediction(o).String()
	return m
}

// TestSweepMatchesSequential pins every experiment's tables to the
// sequential reference path: running the grids through the parallel,
// memoized sweep engine must change nothing — same tables, same stats.
func TestSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick experiment suite twice")
	}
	swept := allTables(Opts{Quick: true, Engine: sweep.New(sweep.Options{})})
	sequential := allTables(Opts{Quick: true, Engine: sequentialEngine()})
	for id, want := range sequential {
		if got := swept[id]; got != want {
			t.Errorf("%s: sweep-engine result diverged from sequential run:\n--- sweep\n%s\n--- sequential\n%s", id, got, want)
		}
	}
}
