package repro_test

import (
	"strings"
	"testing"

	"repro"
)

func TestRunDefaults(t *testing.T) {
	r, err := repro.Run(repro.Config{Workload: "vecsum", Size: 256})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "dsre" {
		t.Errorf("default scheme = %q", r.Scheme)
	}
	if r.IPC <= 0 || r.Cycles <= 0 || r.Insts <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := repro.Run(repro.Config{}); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := repro.Run(repro.Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := repro.Run(repro.Config{Workload: "vecsum", Scheme: "nope"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range repro.Schemes() {
		if _, _, err := repro.ParseScheme(s); err != nil {
			t.Errorf("ParseScheme(%q): %v", s, err)
		}
	}
	if _, _, err := repro.ParseScheme("bogus"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("err = %v", err)
	}
}

func TestWorkloadsListed(t *testing.T) {
	ws := repro.Workloads()
	if len(ws) < 10 {
		t.Fatalf("only %d workloads registered", len(ws))
	}
	for _, w := range ws {
		if repro.WorkloadAnalog(w) == "" {
			t.Errorf("%s: no SPEC analog documented", w)
		}
	}
}

// TestEverySchemeEveryKernelViaFacade is the public-API version of the
// correctness matrix: Run itself verifies architectural state against the
// golden model, so success here means recovery was exact.
func TestEverySchemeEveryKernelViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	for _, w := range repro.Workloads() {
		size := 64
		if w == "matmul" {
			size = 8
		}
		for _, s := range repro.Schemes() {
			if _, err := repro.Run(repro.Config{Workload: w, Scheme: s, Size: size}); err != nil {
				t.Errorf("%s/%s: %v", w, s, err)
			}
		}
	}
}

func TestConfigKnobsChangeTiming(t *testing.T) {
	base, err := repro.Run(repro.Config{Workload: "vecsum", Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	slowNet, err := repro.Run(repro.Config{Workload: "vecsum", Size: 512, HopLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if slowNet.Cycles <= base.Cycles {
		t.Errorf("hop latency 4 (%d cycles) not slower than 1 (%d cycles)", slowNet.Cycles, base.Cycles)
	}
	smallWin, err := repro.Run(repro.Config{Workload: "vecsum", Size: 512, Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if smallWin.Cycles <= base.Cycles {
		t.Errorf("2 frames (%d cycles) not slower than 8 (%d cycles)", smallWin.Cycles, base.Cycles)
	}
}

// TestSampleSeriesKeepsEveryWindow pins that a sampled run keeps its whole
// time series: at one window per cycle, an 86K-cycle run must report one
// window per cycle from cycle 1 on, with no gap.  A bounded collector
// would drop the oldest windows, and the CSV, JSON and Chrome-trace
// exports with them.
func TestSampleSeriesKeepsEveryWindow(t *testing.T) {
	r, err := repro.Run(repro.Config{Workload: "vecsum", Size: 16384, SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(r.Samples)) != r.Cycles {
		t.Fatalf("%d sample windows over %d cycles, want one per cycle", len(r.Samples), r.Cycles)
	}
	if r.Samples[0].Cycle != 1 {
		t.Errorf("first window ends at cycle %d, want 1", r.Samples[0].Cycle)
	}
	for i, s := range r.Samples {
		if s.Cycle != int64(i+1) || s.Window != 1 {
			t.Fatalf("window %d ends at cycle %d over %d cycles, want cycle %d over 1", i, s.Cycle, s.Window, i+1)
		}
	}
}
