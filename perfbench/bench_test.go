package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runTiny runs one workload at tiny sizes and returns its result and state.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) (*result, *bench) {
	t.Helper()
	b, cancel, err := newBench(options{workload: workload, seed: seed, trace: trace, outDir: t.TempDir(), tiny: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	res, err := b.measure()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d", workload, seed, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res, b
}

// checkMetrics asserts that got holds exactly the listed metrics, each with
// its listed unit and a finite value.
func checkMetrics(t *testing.T, what string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, w.Name, m.Value)
		}
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		res, _ := runTiny(t, w.Name, 1, false)
		checkMetrics(t, w.Name, bj.EndToEnd, res.Metrics)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		res, _ = runTiny(t, w.Name, 1, true)
		checkMetrics(t, w.Name+" traced", bj.PerLayer, res.Metrics)
		if r := res.Metrics["sweep.warm_hit_ratio"].Value; r != 1 {
			t.Errorf("%s: sweep.warm_hit_ratio = %v, want 1", w.Name, r)
		}
	}
}

// simulated lists the metrics that depend only on simulated state.
func simulated(name string) bool {
	for _, p := range []string{"ipc_", "dsre_", "lsq.", "noc.", "cpi.", "cache.", "predictor.", "sim.useful",
		"sim.reexecs", "sim.squashed", "sweep.dedup_hits", "sweep.warm_hit_ratio"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.HasPrefix(name, "core.") && name != "core.recovery_us_per_violation"
}

func TestSimulatedMetricsRepeatExactly(t *testing.T) {
	for _, trace := range []bool{false, true} {
		a, _ := runTiny(t, "recovery", 1, trace)
		b, _ := runTiny(t, "recovery", 1, trace)
		n := 0
		for name, m := range a.Metrics {
			if !simulated(name) {
				continue
			}
			n++
			if b.Metrics[name] != m {
				t.Errorf("trace %v: %s = %v, then %v", trace, name, m.Value, b.Metrics[name].Value)
			}
		}
		if n == 0 {
			t.Errorf("trace %v: no simulated metrics compared", trace)
		}
	}
}

func TestSpanSelfTimesAddUpToJobWallTime(t *testing.T) {
	_, b := runTiny(t, "sweep", 1, true)
	spans := b.tr.spans
	self := selfTimes(spans)
	jobSelf := map[int]int64{}
	for i, s := range spans {
		if self[i] < 0 {
			t.Fatalf("span %s (job %d) has negative self time %v", s.name, s.job, self[i])
		}
		if s.parent > 0 {
			p := spans[s.parent-1]
			if p.job != s.job || s.start < p.start || s.end > p.end {
				t.Fatalf("span %s [%v, %v] lies outside its parent %s [%v, %v]", s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
		jobSelf[s.job] += int64(self[i])
	}
	roots := 0
	for _, s := range spans {
		if s.parent != 0 {
			continue
		}
		roots++
		if got, want := jobSelf[s.job], int64(s.end-s.start); got != want {
			t.Errorf("job %d: self times sum to %dns, job span is %dns", s.job, got, want)
		}
	}
	if want := 2 * len(b.specs); roots != want {
		t.Errorf("%d job spans, want %d (a cold and a warm pass over %d specs)", roots, want, len(b.specs))
	}
}

func TestHeldOutSeed(t *testing.T) {
	res, _ := runTiny(t, "recovery", 20260917, false)
	for _, name := range []string{"ipc_geomean", "dsre_speedup_over_storeset", "dsre_fraction_of_oracle"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("held-out seed: %s = %v", name, v)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := iqrShare(xs); got != 5.5/5.5 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}
