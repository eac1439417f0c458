package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func mustHash(t *testing.T, s JobSpec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatalf("hash %+v: %v", s, err)
	}
	return h
}

func TestHashCanonicalisesAliases(t *testing.T) {
	base := JobSpec{Workload: "vecsum"}
	aliases := []JobSpec{
		{Workload: "vecsum", Scheme: "dsre"},
		{Workload: "vecsum", Scheme: "aggressive+dsre"},
		{Workload: "vecsum", Seed: 1},                             // zero seed means 1
		{Workload: "vecsum", DTileBanks: 4},                       // explicit default
		{Workload: "vecsum", Frames: 8, HopLatency: 1},            // more explicit defaults
		{Workload: "vecsum", Placement: "roundrobin"},             // alias of ""
		{Workload: "vecsum", BlockPredictor: "twolevel", Size: 0}, // alias of ""
	}
	want := mustHash(t, base)
	for _, s := range aliases {
		if got := mustHash(t, s); got != want {
			t.Errorf("spec %+v hash %s, want %s (should canonicalise onto the default point)", s, got, want)
		}
	}

	different := []JobSpec{
		{Workload: "vecsum", Scheme: "storeset+flush"},
		{Workload: "vecsum", Frames: 16},
		{Workload: "vecsum", Seed: 2},
		{Workload: "vecsum", Size: 100},
		{Workload: "histogram"},
		{Workload: "vecsum", BlockPredictor: "perfect"},
		{Workload: "vecsum", SampleEvery: 100},
	}
	seen := map[string]string{want: "default"}
	for _, s := range different {
		h := mustHash(t, s)
		if prev, dup := seen[h]; dup {
			t.Errorf("spec %+v collides with %s", s, prev)
		}
		seen[h] = fmt.Sprintf("%+v", s)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (JobSpec{}).Validate(); err == nil {
		t.Error("empty spec validated")
	}
	if err := (JobSpec{Workload: "nope"}).Validate(); err == nil {
		t.Error("unknown workload validated")
	}
	if err := (JobSpec{Workload: "vecsum", Scheme: "nope"}).Validate(); err == nil {
		t.Error("unknown scheme validated")
	}
	if err := (JobSpec{Workload: "vecsum", Size: -1}).Validate(); err == nil {
		t.Error("negative size validated")
	}
	err := (JobSpec{Workload: "vecsum", Frames: 1}).Validate()
	var ce *sim.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("1-frame machine: want *sim.ConfigError, got %v", err)
	}
	if err := (JobSpec{Workload: "vecsum", LSQCapacity: 8}).Validate(); err == nil {
		t.Error("LSQ smaller than one block's memory ops validated (would deadlock)")
	}
	if err := (JobSpec{Workload: "vecsum"}).Validate(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

func fakeReport(spec JobSpec) *telemetry.Report {
	return &telemetry.Report{
		Schema:   telemetry.ReportSchema,
		Workload: spec.Workload,
		Scheme:   spec.Scheme,
		Cycles:   100,
		Insts:    int64(spec.Frames + 1), // spec-dependent payload
		IPC:      1.0,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: "vecsum", Frames: 4}
	h := mustHash(t, spec)

	if rec, err := st.Get(h); err != nil || rec != nil {
		t.Fatalf("empty store Get = (%v, %v), want miss", rec, err)
	}
	if err := st.Put(&Record{Hash: h, Spec: spec}); err == nil {
		t.Error("Put of a record without a report succeeded")
	}
	if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(h)
	if err != nil || rec == nil {
		t.Fatalf("Get after Put = (%v, %v)", rec, err)
	}
	if rec.Report.Insts != 5 || rec.SimVersion != sim.Version || rec.Spec.Workload != "vecsum" {
		t.Errorf("record corrupted: %+v", rec)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len = (%d, %v), want 1", n, err)
	}

	// First write wins: a second Put must not rewrite the object's bytes.
	before, err := os.ReadFile(st.objectPath(h))
	if err != nil {
		t.Fatal(err)
	}
	alt := fakeReport(spec)
	alt.Cycles = 999999
	if err := st.Put(&Record{Hash: h, Spec: spec, Report: alt}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(st.objectPath(h))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Put rewrote an existing content-addressed object")
	}

	// Corruption is a miss, not an error.
	if err := os.WriteFile(st.objectPath(h), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Get(h); err != nil || rec != nil {
		t.Errorf("corrupt object Get = (%v, %v), want miss", rec, err)
	}
}

func TestStoreRejectsStaleSimVersion(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: "vecsum"}
	h := mustHash(t, spec)
	if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the record with a stale version stamp.
	data, err := os.ReadFile(st.objectPath(h))
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Replace(data, []byte(sim.Version), []byte("dsre-sim/v0"), 1)
	if bytes.Equal(stale, data) {
		t.Fatal("version stamp not found in record")
	}
	if err := os.WriteFile(st.objectPath(h), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := st.Get(h); err != nil || rec != nil {
		t.Errorf("stale-version record Get = (%v, %v), want miss", rec, err)
	}
}

// countingRunner returns fake reports and counts invocations per hash.
func countingRunner(t *testing.T, calls *sync.Map) Runner {
	return func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		h, err := spec.Hash()
		if err != nil {
			t.Errorf("runner got unhashable spec: %v", err)
			return nil, err
		}
		v, _ := calls.LoadOrStore(h, new(int64))
		atomic.AddInt64(v.(*int64), 1)
		return fakeReport(spec), nil
	}
}

func TestEngineCachesAcrossRuns(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Workload: "vecsum", Frames: 2},
		{Workload: "vecsum", Frames: 4},
		{Workload: "histogram", Frames: 2},
	}
	var calls sync.Map
	run := func() *Summary {
		eng := New(Options{Workers: 2, Store: st, Runner: countingRunner(t, &calls)})
		sum, err := eng.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}

	first := run()
	if first.OK != 3 || first.CacheHits != 0 || first.Failed != 0 {
		t.Fatalf("first run: %+v", first)
	}
	second := run()
	if second.OK != 3 || second.CacheHits != 3 {
		t.Fatalf("second run should be all cache hits: OK=%d hits=%d", second.OK, second.CacheHits)
	}
	calls.Range(func(k, v any) bool {
		if n := atomic.LoadInt64(v.(*int64)); n != 1 {
			t.Errorf("job %v computed %d times, want 1", k, n)
		}
		return true
	})
	// Cached payloads replay exactly: same marshalled report bytes.
	for i := range first.Jobs {
		a, _ := json.Marshal(first.Jobs[i].Report)
		b, _ := json.Marshal(second.Jobs[i].Report)
		if !bytes.Equal(a, b) {
			t.Errorf("job %d: cached payload diverged:\n%s\n%s", i, a, b)
		}
	}
}

func TestEngineDeduplicatesIdenticalPoints(t *testing.T) {
	var calls sync.Map
	eng := New(Options{Workers: 4, Runner: countingRunner(t, &calls)})
	// Three spellings of one point plus one distinct point.
	specs := []JobSpec{
		{Workload: "vecsum"},
		{Workload: "vecsum", Scheme: "dsre"},
		{Workload: "vecsum", Scheme: "aggressive+dsre", Seed: 1},
		{Workload: "vecsum", Scheme: "oracle"},
	}
	sum, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 4 {
		t.Fatalf("OK = %d, want 4 (%s)", sum.OK, sum.FirstError())
	}
	total := int64(0)
	calls.Range(func(k, v any) bool { total += atomic.LoadInt64(v.(*int64)); return true })
	if total != 2 {
		t.Errorf("computed %d unique jobs, want 2 (3 spellings collapse)", total)
	}
	if sum.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2 duplicate spellings accounted as hits", sum.CacheHits)
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	eng := New(Options{Workers: 2, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		if spec.Workload == "histogram" {
			panic("simulated protocol bug")
		}
		return fakeReport(spec), nil
	}})
	specs := []JobSpec{{Workload: "vecsum"}, {Workload: "histogram"}, {Workload: "matmul"}}
	sum, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 2 || sum.Failed != 1 {
		t.Fatalf("OK=%d Failed=%d, want 2/1", sum.OK, sum.Failed)
	}
	bad := sum.Jobs[1]
	if bad.Status != StatusFailed || !strings.Contains(bad.Error, "simulated protocol bug") {
		t.Errorf("panicking job record: %+v", bad)
	}
	if bad.Spec.Workload != "histogram" {
		t.Errorf("failed record lost its spec: %+v", bad.Spec)
	}
	if _, err := sum.Reports(); err == nil {
		t.Error("Reports() should fail when a job failed")
	}
}

func TestEngineInvalidSpecFailsWithoutRunning(t *testing.T) {
	var calls sync.Map
	eng := New(Options{Runner: countingRunner(t, &calls)})
	sum, err := eng.Run(context.Background(), []JobSpec{
		{Workload: "vecsum"},
		{Workload: "vecsum", Frames: 1}, // rejected by sim.Config.Validate
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 1 || sum.Failed != 1 {
		t.Fatalf("OK=%d Failed=%d", sum.OK, sum.Failed)
	}
	if !strings.Contains(sum.Jobs[1].Error, "Frames") {
		t.Errorf("invalid spec error: %q", sum.Jobs[1].Error)
	}
}

func TestEngineRetries(t *testing.T) {
	var failedOnce atomic.Bool
	eng := New(Options{Retries: 1, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		if failedOnce.CompareAndSwap(false, true) {
			return nil, errors.New("transient failure")
		}
		return fakeReport(spec), nil
	}})
	sum, err := eng.Run(context.Background(), []JobSpec{{Workload: "vecsum"}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 1 || sum.Jobs[0].Attempts != 2 {
		t.Fatalf("retry: %+v", sum.Jobs[0])
	}
}

func TestEnginePerJobTimeout(t *testing.T) {
	eng := New(Options{Workers: 1, Timeout: 10 * time.Millisecond,
		Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	sum, err := eng.Run(context.Background(), []JobSpec{{Workload: "vecsum"}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || !strings.Contains(sum.Jobs[0].Error, "deadline") {
		t.Fatalf("timeout job: %+v", sum.Jobs[0])
	}
}

func TestEngineSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	eng := New(Options{Workers: 1, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	go func() {
		<-started
		cancel()
	}()
	specs := []JobSpec{
		{Workload: "vecsum"}, {Workload: "histogram"}, {Workload: "matmul"},
	}
	sum, err := eng.Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if sum.Failed == 0 {
		t.Error("cancelled sweep recorded no failures")
	}
	for _, j := range sum.Jobs {
		if j.Status == "" {
			t.Errorf("job %s has no recorded status after cancellation", j.Spec.Name())
		}
	}
}

// TestJobResultNotRun pins the one result shape callers use to tell an
// abandoned job from a failed one: NotRun holds exactly for the jobs the
// cancelled sweep never fed to a worker, and not for an invalid spec, a
// job that failed after its retries, or the job running at the cancel.
func TestJobResultNotRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var called sync.Map // spec.Size -> true once the runner saw it
	eng := New(Options{Workers: 1, Retries: 2, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		called.Store(spec.Size, true)
		switch spec.Size {
		case 32:
			return nil, errors.New("deterministic failure")
		case 48:
			cancel()
			// Linger so the feeder sees the cancel before this worker is
			// free to take another job.
			time.Sleep(50 * time.Millisecond)
			return nil, ctx.Err()
		}
		return fakeReport(spec), nil
	}})
	specs := []JobSpec{
		{Workload: "vecsum", Frames: 1}, // invalid: no hash, never runs
		{Workload: "vecsum", Size: 16},  // ok
		{Workload: "vecsum", Size: 32},  // fails after 3 attempts
		{Workload: "vecsum", Size: 48},  // cancels the sweep while running
		{Workload: "vecsum", Size: 64},  // never fed
		{Workload: "vecsum", Size: 80},  // never fed
	}
	sum, _ := eng.Run(ctx, specs)
	if j := sum.Jobs[0]; j.NotRun() || j.Status != StatusFailed {
		t.Errorf("invalid spec: NotRun=%v %+v", j.NotRun(), j)
	}
	if j := sum.Jobs[2]; j.NotRun() || j.Attempts != 3 {
		t.Errorf("job failed after retries: NotRun=%v %+v", j.NotRun(), j)
	}
	notRun := 0
	for _, j := range sum.Jobs[1:] {
		_, ran := called.Load(j.Spec.Size)
		if j.NotRun() == ran {
			t.Errorf("size %d: NotRun=%v, but the runner ran=%v (%+v)", j.Spec.Size, j.NotRun(), ran, j)
		}
		if j.NotRun() {
			notRun++
		}
	}
	if notRun != 2 {
		t.Errorf("%d not-run jobs, want the 2 queued behind the cancel", notRun)
	}
}

func TestProgressReporter(t *testing.T) {
	var buf bytes.Buffer
	rep := NewReporter(&buf, 2)
	eng := New(Options{Workers: 2, Progress: rep, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		if spec.Workload == "matmul" {
			return nil, errors.New("boom")
		}
		return fakeReport(spec), nil
	}})
	_, err := eng.Run(context.Background(), []JobSpec{{Workload: "vecsum"}, {Workload: "matmul"}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sweep: 2 jobs", "vecsum/dsre", "FAIL", "boom", "1 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	eng := New(Options{Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		return fakeReport(spec), nil
	}})
	specs := []JobSpec{{Workload: "vecsum", Frames: 4}, {Workload: "histogram"}}
	sum, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep-manifest.json")
	if err := NewManifest(sum).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.SimVersion != sim.Version || m.Totals.Jobs != 2 || m.Totals.OK != 2 {
		t.Errorf("manifest: %+v", m.Totals)
	}
	got := m.Specs()
	if len(got) != 2 || got[0] != specs[0] || got[1] != specs[1] {
		t.Errorf("manifest specs round-trip: %+v", got)
	}
	// Manifests carry metadata, not payloads.
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "\"stats\"") {
		t.Error("manifest contains report payloads")
	}
}

func TestGridExpand(t *testing.T) {
	g := Grid{
		Workloads: []string{"vecsum", "histogram"},
		Schemes:   []string{"dsre", "storeset+flush"},
		Frames:    []int{2, 4, 8},
		Specs:     []JobSpec{{Workload: "matmul", Scheme: "oracle"}},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*3+1 {
		t.Fatalf("expanded %d specs, want 13", len(specs))
	}
	if specs[0] != (JobSpec{Workload: "vecsum", Scheme: "dsre", Frames: 2}) {
		t.Errorf("first spec: %+v", specs[0])
	}
	if specs[12] != (JobSpec{Workload: "matmul", Scheme: "oracle"}) {
		t.Errorf("explicit spec not appended: %+v", specs[12])
	}
	if _, err := (Grid{}).Expand(); err == nil {
		t.Error("empty grid expanded")
	}
}

func TestGridReadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(path, []byte(`{"workloadz": ["vecsum"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGrid(path); err == nil {
		t.Error("typoed grid field accepted")
	}
	if err := os.WriteFile(path, []byte(`{"workloads": ["vecsum"], "frames": [2, 4]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if specs, _ := g.Expand(); len(specs) != 2 {
		t.Errorf("expanded %d specs, want 2", len(specs))
	}
}
