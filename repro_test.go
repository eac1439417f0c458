package repro_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
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

// TestSharedPreparedConcurrently runs every scheme on one Prepared from
// several goroutines at once, as sweep workers do, while other goroutines
// Prepare points of their own.  Each run must equal the same scheme run
// alone.  Under -race it also checks that simulating from a Prepared only
// clones and compares its memories and reads its oracle: a mem.Memory
// fills its page cache even on reads, so one may be shared only that way.
func TestSharedPreparedConcurrently(t *testing.T) {
	ctx := context.Background()
	cfg := func(scheme string) repro.Config {
		return repro.Config{Workload: "stencil", Scheme: scheme, Size: 64, Seed: 3}
	}
	alone, err := repro.Prepare("stencil", 64, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*repro.Result{}
	for _, s := range repro.Schemes() {
		if want[s], err = repro.RunPrepared(ctx, cfg(s), alone); err != nil {
			t.Fatal(err)
		}
	}
	// Each round shares clones of the memories, whose page caches are
	// empty, so a read of either by one goroutine fills a cache entry that
	// the others read: the race detector reports it when nothing orders
	// the two, and rounds repeat the chance.  The workers only run, and
	// the results are compared once they have all finished.
	var got []*repro.Result
	errs := make(chan error, 64) // more than the failures one round can send
	for round := 0; round < 4; round++ {
		w, g := *alone.Workload, *alone.Golden
		w.Mem, g.Mem = w.Mem.Clone(), g.Mem.Clone()
		shared := &repro.Prepared{Workload: &w, Golden: &g}
		results := make([]*repro.Result, len(repro.Schemes()))
		var wg sync.WaitGroup
		for i, s := range repro.Schemes() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := repro.RunPrepared(ctx, cfg(s), shared)
				if err != nil {
					errs <- err
				}
				results[i] = r
			}()
		}
		for _, k := range []string{"histogram", "bank", "hashmap", "cursor"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := repro.Prepare(k, 64, 0, uint64(round)); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		got = append(got, results...)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, r := range got {
		s := repro.Schemes()[i%len(repro.Schemes())]
		if r != nil && (r.Cycles != want[s].Cycles || !reflect.DeepEqual(r.Sim, want[s].Sim)) {
			t.Errorf("%s: %d cycles run concurrently, %d alone", s, r.Cycles, want[s].Cycles)
		}
	}
}
