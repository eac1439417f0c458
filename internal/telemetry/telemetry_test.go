package telemetry_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/account"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func sample(cycle int64) sim.Sample {
	return sim.Sample{
		Cycle: cycle, Window: 100, IPC: float64(cycle) / 1000,
		CommittedBlocks: 2, InFlightBlocks: 4, WindowInsts: 512,
		LSQOccupancy: 48, NoCPending: 7, Waves: 1, Reexecs: 3,
		L1DMissRate: 0.125, L2MissRate: 0.5,
		CPI: account.CPIStack{Commit: 60, Wave: 15, Fetch: 20, NoC: 5},
	}
}

func TestSamplerCSV(t *testing.T) {
	series := []sim.Sample{sample(100), sample(200)}
	var buf bytes.Buffer
	if err := telemetry.WriteCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	cols := strings.Split(lines[0], ",")
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != len(cols) {
			t.Errorf("row has %d columns, header has %d", got, len(cols))
		}
	}
	if !strings.HasPrefix(lines[1], "100,100,0.100000") {
		t.Errorf("first row = %q", lines[1])
	}

	buf.Reset()
	if err := telemetry.WriteJSON(&buf, series); err != nil {
		t.Fatal(err)
	}
	var back []sim.Sample
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, series) {
		t.Errorf("JSON round trip: got %+v, want %+v", back, series)
	}
}

// syntheticCollector builds a small, fully deterministic trace collection
// exercising every event and span kind.
func syntheticCollector() *trace.Collector {
	c := &trace.Collector{}
	c.Record(10, trace.KindExec, 0, 3, 0)
	c.Record(12, trace.KindCorrection, 0, 5, 7)
	c.Record(14, trace.KindReexec, 0, 6, 7)
	c.Record(18, trace.KindReexec, 1, 2, 7)
	c.Record(25, trace.KindBlockCommit, 0, 0, 0)
	c.Record(30, trace.KindBlockSquash, 2, 0, 0)
	c.RecordSpan(trace.SpanFetch, 0, 4, 0, 0, 9)
	c.RecordSpan(trace.SpanBlock, 0, 4, 0, 9, 25)
	c.RecordSpan(trace.SpanBlock, 2, 6, 1, 20, 30)
	c.RecordSpan(trace.SpanExec, 0, 3, 0, 9, 10)
	return c
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	err := telemetry.WriteChromeTrace(&buf, syntheticCollector(), []sim.Sample{sample(100)})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace diverged from golden file (re-run with -update if intended)\ngot:  %s\nwant: %s",
			buf.Bytes(), want)
	}
	// The golden bytes must themselves be valid catapult JSON.
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("golden output is not JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
}

func TestChromeTraceFromRun(t *testing.T) {
	res, err := repro.Run(repro.Config{
		Workload: "vecsum", Scheme: "dsre", Size: 256,
		Trace: true, SampleEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Spans) == 0 {
		t.Fatal("run recorded no stage spans")
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, res.Trace, res.Samples); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range out.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
		ph := e["ph"].(string)
		phases[ph]++
		if ph != "M" {
			if _, ok := e["ts"]; !ok {
				t.Fatalf("non-metadata event missing ts: %v", e)
			}
		}
	}
	for _, ph := range []string{"X", "C", "M"} {
		if phases[ph] == 0 {
			t.Errorf("no %q-phase events in exported trace (phases: %v)", ph, phases)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	res, err := repro.Run(repro.Config{
		Workload: "histogram", Scheme: "dsre", Size: 512, SampleEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report did not round-trip:\n before %+v\n after  %+v", rep, back)
	}
	if back.Stats.WaveSizeHist.N != res.Sim.WaveSizeHist.N ||
		back.Stats.WaveSizeHist.Sum != res.Sim.WaveSizeHist.Sum {
		t.Errorf("wave histogram lost in round-trip: %+v vs %+v",
			back.Stats.WaveSizeHist, res.Sim.WaveSizeHist)
	}
}

// TestReportMatchesRunCounters verifies that the JSON report dsre-sim's
// -json flag writes agrees with the counters the CLI prints (both come
// from the same Result).
func TestReportMatchesRunCounters(t *testing.T) {
	res, err := repro.Run(repro.Config{
		Workload: "histogram", Scheme: "dsre", Size: 512, SampleEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := res.Report().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"cycles", rep.Cycles, res.Cycles},
		{"insts", rep.Insts, res.Insts},
		{"blocks", rep.Blocks, res.Blocks},
		{"violations", rep.Violations, res.Violations},
		{"flushes", rep.Flushes, res.Flushes},
		{"corrections", rep.Corrections, res.Corrections},
		{"reexecs", rep.Reexecs, res.Reexecs},
		{"waves", rep.Waves, res.Waves},
		{"stats.cycles", rep.Stats.Cycles, res.Sim.Cycles},
		{"stats.executed", rep.Stats.Executed, res.Sim.Executed},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: report %d, run %d", c.name, c.got, c.want)
		}
	}
	if rep.IPC != res.IPC {
		t.Errorf("ipc: report %v, run %v", rep.IPC, res.IPC)
	}
	if len(rep.Samples) == 0 {
		t.Error("report carried no telemetry samples")
	}
}

func TestRunSamplesWindows(t *testing.T) {
	res, err := repro.Run(repro.Config{
		Workload: "vecsum", Scheme: "dsre", Size: 512, SampleEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no sample windows")
	}
	var committed, reexecs int64
	var cpi account.CPIStack
	prev := int64(0)
	for i, s := range res.Samples {
		if s.Cycle <= prev {
			t.Fatalf("sample %d cycle %d not increasing (prev %d)", i, s.Cycle, prev)
		}
		if s.Window <= 0 {
			t.Fatalf("sample %d window %d", i, s.Window)
		}
		// Verified runs always account, so each window's CPI buckets must
		// conserve the window's slot budget exactly.
		if tot, want := s.CPI.Total(), s.Window*account.SlotsPerCycle; tot != want {
			t.Fatalf("sample %d CPI window total %d, want %d", i, tot, want)
		}
		prev = s.Cycle
		committed += s.CommittedBlocks
		reexecs += s.Reexecs
		for b := account.Bucket(0); b < account.NumBuckets; b++ {
			cpi.Add(b, s.CPI.Get(b))
		}
	}
	// Windowed deltas must sum back to the run totals (the final partial
	// window flush guarantees full coverage).
	if committed != res.Blocks {
		t.Errorf("sum of windowed commits = %d, run committed %d", committed, res.Blocks)
	}
	if reexecs != res.Reexecs {
		t.Errorf("sum of windowed reexecs = %d, run total %d", reexecs, res.Reexecs)
	}
	if cpi != res.Sim.Acct {
		t.Errorf("sum of windowed CPI stacks = %+v, run stack %+v", cpi, res.Sim.Acct)
	}
}

// TestStampWall pins the host-throughput stamp: the rate is cycles over
// wall, and a non-positive wall (cached replay, clock step) leaves both
// fields unset instead of dividing by zero.
func TestStampWall(t *testing.T) {
	r := &telemetry.Report{Cycles: 2_000_000}
	r.StampWall(0)
	if r.SimWallMS != 0 || r.McyclesPerSec != 0 {
		t.Errorf("zero wall stamped: wall=%v rate=%v", r.SimWallMS, r.McyclesPerSec)
	}
	r.StampWall(500 * time.Millisecond)
	if r.SimWallMS != 500 {
		t.Errorf("SimWallMS = %v, want 500", r.SimWallMS)
	}
	if r.McyclesPerSec < 3.99 || r.McyclesPerSec > 4.01 {
		t.Errorf("McyclesPerSec = %v, want 4", r.McyclesPerSec)
	}
}
