package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/status"
	"repro/internal/obs/tracing"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// memSink captures lifecycle events in memory for assertions.
type memSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *memSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *memSink) all() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

func (s *memSink) count(kind obs.EventKind, match func(obs.Event) bool) int {
	n := 0
	for _, e := range s.all() {
		if e.Kind == kind && (match == nil || match(e)) {
			n++
		}
	}
	return n
}

// fakeRunner returns a deterministic spec-dependent report without touching
// the simulator.  It never stamps wall-clock fields, so reports (and the
// sealed records around them) are byte-stable across runs.
func fakeRunner(delay time.Duration) sweep.Runner {
	return func(ctx context.Context, spec sweep.JobSpec) (*telemetry.Report, error) {
		if delay > 0 {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		c, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		return &telemetry.Report{
			Schema:   telemetry.ReportSchema,
			Workload: c.Workload,
			Scheme:   c.Scheme,
			Size:     c.Size,
			Cycles:   1000 + int64(c.Size),
			Insts:    500,
			IPC:      0.5,
			Blocks:   7,
		}, nil
	}
}

// daemon bundles one in-process dsre-serve daemon under httptest.
type daemon struct {
	srv   *serve.Server
	ts    *httptest.Server
	store *sweep.DirStore
	sink  *memSink
	spans *obs.SpanLog
}

// startDaemon builds and starts a daemon whose engine runs with eng's
// Workers, Runner and Retries (Runner defaults to fakeRunner(0)); the
// daemon wires the store, the observer, the span log and the event sink.
func startDaemon(t *testing.T, cfg serve.Config, eng sweep.Options) *daemon {
	t.Helper()
	store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	spans := obs.NewSpanLog()
	engObs := obs.NewSweepObs(time.Now(), sink, spans)
	if eng.Runner == nil {
		eng.Runner = fakeRunner(0)
	}
	eng.Store, eng.Obs = store, engObs
	cfg.Store, cfg.Engine, cfg.Obs, cfg.Sink = store, sweep.New(eng), engObs, sink
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain("test-cleanup", 2*time.Second)
		ts.Close()
	})
	return &daemon{srv: srv, ts: ts, store: store, sink: sink, spans: spans}
}

func (d *daemon) post(t *testing.T, path, tenant string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-DSRE-Tenant", tenant)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (d *daemon) get(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func (d *daemon) submit(t *testing.T, tenant string, grid *sweep.Grid) *serve.SweepView {
	t.Helper()
	code, body := d.post(t, "/v1/sweeps", tenant, serve.SubmitRequest{Schema: serve.SubmitSchema, Grid: grid})
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var v serve.SweepView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return &v
}

func (d *daemon) waitFinished(t *testing.T, id string, deadline time.Duration) *serve.SweepView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var v serve.SweepView
		if code := d.get(t, "/v1/sweeps/"+id, &v); code != http.StatusOK {
			t.Fatalf("sweep %s: HTTP %d", id, code)
		}
		if v.Finished {
			return &v
		}
		if time.Now().After(stop) {
			t.Fatalf("sweep %s not finished after %s: %+v", id, deadline, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// progress fetches /progress: the engine observer's dsre-progress/v1
// document, one grid per engine Run.
func (d *daemon) progress(t *testing.T) *obs.ProgressView {
	t.Helper()
	var v obs.ProgressView
	if code := d.get(t, "/progress", &v); code != http.StatusOK {
		t.Fatalf("/progress: HTTP %d", code)
	}
	if v.Schema != obs.ProgressSchema {
		t.Fatalf("/progress schema = %q, want %q", v.Schema, obs.ProgressSchema)
	}
	return &v
}

// metric scrapes /metrics and returns one unlabelled sample.
func (d *daemon) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not on /metrics", name)
	return 0
}

// executions sums the fresh executions (done minus cache hits) of sweeps.
func executions(views ...*serve.SweepView) int {
	n := 0
	for _, v := range views {
		n += v.Done - v.CacheHits
	}
	return n
}

func testGrid() *sweep.Grid {
	return &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32}}
}

// TestDaemonEndToEndLocal drives the full local-execution path over HTTP:
// submit, poll to completion, fetch manifest and per-artifact reports, and
// pin the served report bytes to what the runner produces directly.
func TestDaemonEndToEndLocal(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 2})

	v := d.submit(t, "e2e", testGrid())
	if v.Total != 2 || v.Unique != 2 {
		t.Fatalf("submit view: total %d unique %d, want 2/2", v.Total, v.Unique)
	}
	v = d.waitFinished(t, v.Sweep, 5*time.Second)
	if v.Done != 2 || v.Failed != 0 || v.CacheHits != 0 {
		t.Fatalf("cold sweep: done %d failed %d hits %d, want 2/0/0", v.Done, v.Failed, v.CacheHits)
	}

	var m sweep.Manifest
	if code := d.get(t, "/v1/sweeps/"+v.Sweep+"/manifest", &m); code != http.StatusOK {
		t.Fatalf("manifest: HTTP %d", code)
	}
	if m.Schema != sweep.ManifestSchema || m.Totals.Jobs != 2 || m.Totals.OK != 2 {
		t.Fatalf("manifest: %+v", m.Totals)
	}

	// Every served report must be byte-identical to the runner's output for
	// the canonical spec — the serve path adds transport, not content.
	specs, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		h, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		var got telemetry.Report
		if code := d.get(t, "/v1/artifacts/"+h+"/report", &got); code != http.StatusOK {
			t.Fatalf("report %s: HTTP %d", h, code)
		}
		want, err := fakeRunner(0)(context.Background(), canon)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(&got)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: served report differs from direct run\n got: %s\nwant: %s", spec.Name(), gotJSON, wantJSON)
		}

		var rec sweep.Record
		if code := d.get(t, "/v1/artifacts/"+h, &rec); code != http.StatusOK {
			t.Fatalf("artifact %s: HTTP %d", h, code)
		}
		if err := rec.VerifyPayload(); err != nil {
			t.Errorf("served record fails integrity check: %v", err)
		}

		var doc map[string]any
		if code := d.get(t, "/v1/artifacts/"+h+"/explain", &doc); code != http.StatusOK {
			t.Fatalf("explain %s: HTTP %d", h, code)
		}
		if doc["schema"] != "dsre-explain/v1" {
			t.Errorf("explain schema = %v", doc["schema"])
		}
	}

	// A repeat submit resolves entirely from the store at submit time.
	v2 := d.submit(t, "e2e", testGrid())
	if !v2.Finished || v2.Done != 2 || v2.CacheHits != 2 {
		t.Fatalf("warm sweep: %+v, want finished with 2 hits", v2)
	}

	// Accounting identity: every submitted spec is either a cache hit or a
	// fresh execution, and the engine's own counters agree.
	if n := executions(v, v2); n != 2 || v.CacheHits+v2.CacheHits+n != 4 {
		t.Errorf("4 specs != %d hits + %d executions", v.CacheHits+v2.CacheHits, n)
	}
	if got := d.metric(t, "dsre_serve_submit_specs_total"); got != 4 {
		t.Errorf("dsre_serve_submit_specs_total = %v, want 4", got)
	}
	if got := d.metric(t, "dsre_serve_sweeps_open"); got != 0 {
		t.Errorf("dsre_serve_sweeps_open = %v after both sweeps finished", got)
	}
	if ok, hits := d.metric(t, "dsre_sweep_jobs_ok_total"), d.metric(t, "dsre_sweep_cache_hits_total"); ok-hits != 2 {
		t.Errorf("engine counters: ok %v - hits %v, want 2 executions", ok, hits)
	}
	done := 0
	for _, g := range d.progress(t).Grids {
		if !g.Finished {
			t.Errorf("progress: grid %s unfinished", g.Grid)
		}
		done += g.Done
	}
	if done != 2 {
		t.Errorf("progress: engine grids completed %d jobs, want 2", done)
	}
}

// TestConcurrentSubmitDedup submits the same grid from several clients at
// once and asserts content-addressed dedup: each unique point executes at
// most once, nothing is lost, and the event log reconciles with the
// submitted spec count.
func TestConcurrentSubmitDedup(t *testing.T) {
	d := startDaemon(t, serve.Config{}, sweep.Options{Workers: 2, Runner: fakeRunner(30 * time.Millisecond)})

	const clients = 4
	views := make([]*serve.SweepView, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = d.submit(t, fmt.Sprintf("c%d", i), testGrid())
		}(i)
	}
	wg.Wait()
	hits := 0
	for i, v := range views {
		views[i] = d.waitFinished(t, v.Sweep, 10*time.Second)
		if views[i].Done != 2 || views[i].Failed != 0 {
			t.Fatalf("sweep %s: done %d failed %d, want 2/0", v.Sweep, views[i].Done, views[i].Failed)
		}
		hits += views[i].CacheHits
	}
	execs := executions(views...)
	if execs != 2 {
		t.Errorf("executions = %d for 2 unique points (duplicated work)", execs)
	}
	if hits+execs != clients*2 {
		t.Errorf("accounting: %d specs != %d hits + %d executions", clients*2, hits, execs)
	}

	// Event-log reconciliation: submitted spec copies == engine job_done
	// executions + cache-satisfied copies.
	submitted := 0
	for _, e := range d.sink.all() {
		if e.Kind == obs.EventSubmit && e.Sweep != "" {
			submitted += e.Total
		}
	}
	engineDone := d.sink.count(obs.EventJobDone, func(e obs.Event) bool { return e.Status == sweep.StatusOK })
	if submitted != clients*2 {
		t.Errorf("event log: %d submitted specs, want %d", submitted, clients*2)
	}
	if engineDone != execs {
		t.Errorf("event log: %d engine job_done events, sweeps say %d executions", engineDone, execs)
	}
	if submitted != hits+engineDone {
		t.Errorf("event log: %d specs != %d cache hits + %d executions", submitted, hits, engineDone)
	}
}

// TestDrainFlushesManifests pins graceful shutdown: draining refuses new
// submits, flushes one manifest per sweep, and emits the drain event.
func TestDrainFlushesManifests(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, serve.Config{BatchLinger: -1, ManifestDir: dir}, sweep.Options{Workers: 1})

	v := d.submit(t, "drain", testGrid())
	d.waitFinished(t, v.Sweep, 5*time.Second)
	d.srv.Drain("test", 3*time.Second)

	if code := d.get(t, "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after drain: HTTP %d", code)
	}
	if code, _ := d.post(t, "/v1/sweeps", "drain", serve.SubmitRequest{Schema: serve.SubmitSchema, Grid: testGrid()}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}

	m, err := sweep.ReadManifest(filepath.Join(dir, v.Sweep+".json"))
	if err != nil {
		t.Fatalf("flushed manifest: %v", err)
	}
	if m.Totals.Jobs != 2 || m.Totals.OK != 2 {
		t.Errorf("flushed manifest totals: %+v", m.Totals)
	}
	if n := d.sink.count(obs.EventServeDrain, nil); n != 1 {
		t.Errorf("drain events = %d, want 1", n)
	}
}

// TestFailedJobExhaustsEngineRetries pins the one retry policy: a job
// whose runner always fails runs exactly 1+Retries times, and the failure
// is terminal for every sweep waiting on it — one submitted before it
// started and one submitted while it ran — with the error in both
// manifests.
func TestFailedJobExhaustsEngineRetries(t *testing.T) {
	const retries = 2
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	runner := func(ctx context.Context, spec sweep.JobSpec) (*telemetry.Report, error) {
		if calls.Add(1) == 1 {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil, fmt.Errorf("boom")
	}
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1, Retries: retries, Runner: runner})

	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre"}, Sizes: []int{32}}
	before := d.submit(t, "before", grid)
	<-started
	during := d.submit(t, "during", grid)
	if during.Unique != 0 || during.Finished || during.Jobs[0].State != "running" {
		t.Fatalf("submit while running: %+v, want attached to the running job", during)
	}
	close(release)

	for _, id := range []string{before.Sweep, during.Sweep} {
		v := d.waitFinished(t, id, 5*time.Second)
		if v.Failed != 1 || v.Done != 0 {
			t.Errorf("sweep %s: done %d failed %d, want 0/1", id, v.Done, v.Failed)
		}
		if j := v.Jobs[0]; j.State != "failed" || j.Attempts != 1+retries || j.Error != "boom" {
			t.Errorf("sweep %s job: %+v, want failed after %d attempts with the runner's error", id, j, 1+retries)
		}
		var m sweep.Manifest
		if code := d.get(t, "/v1/sweeps/"+id+"/manifest", &m); code != http.StatusOK {
			t.Fatalf("manifest %s: HTTP %d", id, code)
		}
		if m.Totals.Failed != 1 || m.Jobs[0].Status != sweep.StatusFailed || m.Jobs[0].Error != "boom" {
			t.Errorf("manifest %s: %+v", id, m.Jobs)
		}
	}
	if n := calls.Load(); n != 1+retries {
		t.Errorf("runner ran %d times, want %d", n, 1+retries)
	}
	if n := d.sink.count(obs.EventJobDone, nil); n != 1 {
		t.Errorf("job_done events = %d, want one execution", n)
	}
}

// TestDrainHardCancelAbandons pins the drain deadline: the engine run in
// flight is cancelled, the jobs it had not started go back to the queue,
// Drain counts them abandoned, and the flushed manifest records them as
// not run.
func TestDrainHardCancelAbandons(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 3)
	runner := func(ctx context.Context, spec sweep.JobSpec) (*telemetry.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		// Linger so the engine's feeder sees the cancel before this worker
		// is free to take another job.
		time.Sleep(50 * time.Millisecond)
		return nil, ctx.Err()
	}
	d := startDaemon(t, serve.Config{BatchLinger: -1, ManifestDir: dir}, sweep.Options{Workers: 1, Runner: runner})

	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle", "conservative"}, Sizes: []int{32}}
	v := d.submit(t, "drain", grid)
	<-started
	abandoned := d.srv.Drain("test", 20*time.Millisecond)

	m, err := sweep.ReadManifest(filepath.Join(dir, v.Sweep+".json"))
	if err != nil {
		t.Fatalf("flushed manifest: %v", err)
	}
	notRun := 0
	for _, j := range m.Jobs {
		if j.Status != sweep.StatusFailed {
			t.Errorf("job %s: status %s after a hard cancel", j.Spec.Name(), j.Status)
		}
		if strings.HasPrefix(j.Error, "not run:") {
			notRun++
		}
	}
	if abandoned != 2 || notRun != abandoned {
		t.Errorf("Drain abandoned %d, manifest has %d not-run jobs; want 2 each (%+v)", abandoned, notRun, m.Jobs)
	}
	var drain []obs.Event
	for _, e := range d.sink.all() {
		if e.Kind == obs.EventServeDrain {
			drain = append(drain, e)
		}
	}
	if len(drain) != 1 || drain[0].Total != abandoned {
		t.Errorf("serve_drain events %+v, want one carrying %d abandoned", drain, abandoned)
	}
}

// TestRemoteStoreIntegrity pins the HTTP store client contract: a record
// whose payload hash does not verify reads as a miss and reports through
// the corruption hook; a missing record is a silent miss; a valid record
// round-trips.
func TestRemoteStoreIntegrity(t *testing.T) {
	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := spec.Hash()
	rep, err := fakeRunner(0)(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	good := &sweep.Record{Hash: h, Spec: canon, Report: rep}
	if _, err := good.Seal(); err != nil {
		t.Fatal(err)
	}
	tampered := *good
	tamperedRep := *rep
	tamperedRep.Cycles += 1 // flip the payload after sealing
	tampered.Report = &tamperedRep

	objects := map[string]*sweep.Record{"good": good, "bad": &tampered}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts/{key}", func(w http.ResponseWriter, r *http.Request) {
		rec, ok := objects[r.PathValue("key")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(rec)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rs := serve.NewRemoteStore(ts.URL, nil)
	var corrupt []string
	rs.SetOnCorrupt(func(hash, detail string) { corrupt = append(corrupt, hash+": "+detail) })

	// The good object round-trips; the server addresses by key, but the
	// record's own Hash must match what the client asked for.
	objects[h] = good
	rec, err := rs.Get(h)
	if err != nil || rec == nil {
		t.Fatalf("valid record Get = (%v, %v)", rec, err)
	}
	if rec.Report.Cycles != rep.Cycles {
		t.Errorf("round-trip changed payload")
	}

	// The tampered object is a miss plus a corruption report, not an error.
	objects[h] = &tampered
	rec, err = rs.Get(h)
	if err != nil || rec != nil {
		t.Errorf("tampered record Get = (%v, %v), want miss", rec, err)
	}
	if len(corrupt) != 1 || !strings.Contains(corrupt[0], h) {
		t.Errorf("corruption hook calls: %v", corrupt)
	}

	// Missing is a silent miss.
	delete(objects, h)
	rec, err = rs.Get(h)
	if err != nil || rec != nil {
		t.Errorf("missing record Get = (%v, %v), want miss", rec, err)
	}
	if len(corrupt) != 1 {
		t.Errorf("missing record reported as corrupt: %v", corrupt)
	}
}

// TestRemoteStoreAgainstDaemon runs the client against a real daemon: Put
// uploads a sealed record, Get replays it, and an engine wired to the
// remote store resolves the point as a cache hit.
func TestRemoteStoreAgainstDaemon(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1})

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	canon, _ := spec.Canonical()
	h, _ := spec.Hash()
	rep, _ := fakeRunner(0)(context.Background(), spec)
	rec := &sweep.Record{Hash: h, Spec: canon, Report: rep}

	rs := serve.NewRemoteStore(d.ts.URL, nil)
	if err := rs.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Get(h)
	if err != nil || got == nil {
		t.Fatalf("Get after Put = (%v, %v)", got, err)
	}

	// An engine with the remote store never runs the point.
	ran := false
	eng := sweep.New(sweep.Options{Workers: 1, Store: rs, Runner: func(ctx context.Context, s sweep.JobSpec) (*telemetry.Report, error) {
		ran = true
		return fakeRunner(0)(ctx, s)
	}})
	sum, err := eng.Run(context.Background(), []sweep.JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if ran || !sum.Jobs[0].CacheHit {
		t.Errorf("remote store did not satisfy the point: ran=%v result=%+v", ran, sum.Jobs[0])
	}
}

// TestArtifactPutRejections pins upload validation: wrong or malformed
// address, missing payload and version skew are refused with typed
// statuses.
func TestArtifactPutRejections(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1})

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	canon, _ := spec.Canonical()
	h, _ := spec.Hash()
	rep, _ := fakeRunner(0)(context.Background(), spec)
	rec := &sweep.Record{Hash: h, Spec: canon, Report: rep}
	if _, err := rec.Seal(); err != nil {
		t.Fatal(err)
	}

	put := func(path string, rec *sweep.Record) int {
		data, _ := json.Marshal(rec)
		req, err := http.NewRequest(http.MethodPut, d.ts.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put("/v1/artifacts/"+h, rec); code != http.StatusOK {
		t.Fatalf("valid upload: HTTP %d", code)
	}
	if code := put("/v1/artifacts/"+strings.Repeat("ab", 32), rec); code != http.StatusBadRequest {
		t.Errorf("address mismatch: HTTP %d, want 400", code)
	}
	if code := put("/v1/artifacts/deadbeef", rec); code != http.StatusBadRequest {
		t.Errorf("malformed address: HTTP %d, want 400", code)
	}
	skew := *rec
	skew.SimVersion = "dsre-sim/v999"
	if code := put("/v1/artifacts/"+h, &skew); code != http.StatusConflict {
		t.Errorf("version skew: HTTP %d, want 409", code)
	}
	hollow := *rec
	hollow.Report = nil
	if code := put("/v1/artifacts/"+h, &hollow); code != http.StatusBadRequest {
		t.Errorf("missing payload: HTTP %d, want 400", code)
	}
	flipped := *rec
	flippedRep := *rep
	flippedRep.Cycles++
	flipped.Report = &flippedRep
	if code := put("/v1/artifacts/"+h, &flipped); code != http.StatusBadRequest {
		t.Errorf("bad payload hash: HTTP %d, want 400", code)
	}
}

// TestArtifactPutRejectsPathTraversal pins that an upload addressed by
// anything but a spec hash never reaches the file system: "%2F" in the URL
// unescapes to a path separator, and a sealed record carrying the same
// string as its hash would otherwise reach a path outside the store.
func TestArtifactPutRejectsPathTraversal(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1})

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	canon, _ := spec.Canonical()
	rep, _ := fakeRunner(0)(context.Background(), spec)
	rec := &sweep.Record{Hash: "../escaped/x", Spec: canon, Report: rep}
	if _, err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(rec)
	req, err := http.NewRequest(http.MethodPut, d.ts.URL+"/v1/artifacts/..%2Fescaped%2Fx", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 4 {
		t.Errorf("traversing upload: HTTP %d, want 4xx", resp.StatusCode)
	}

	// The store is the only entry of its temp dir.
	entries, err := os.ReadDir(filepath.Dir(d.store.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(d.store.Dir()) {
			t.Errorf("upload wrote %s beside the store", e.Name())
		}
	}
}

// submitTraced submits a grid with an explicit traceparent header and
// returns the sweep view plus the context that was sent.
func (d *daemon) submitTraced(t *testing.T, tenant string, grid *sweep.Grid, tc tracing.Context) *serve.SweepView {
	t.Helper()
	data, err := json.Marshal(serve.SubmitRequest{Schema: serve.SubmitSchema, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/sweeps", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-DSRE-Tenant", tenant)
	tc.SetHeader(req.Header)
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("traced submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var v serve.SweepView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return &v
}

// fetchTrace downloads one sweep's Chrome trace and returns the trace ID
// in its metadata plus how many job spans it holds per hash.
func (d *daemon) fetchTrace(t *testing.T, sweepID string) (string, map[string]int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if code := d.get(t, "/v1/sweeps/"+sweepID+"/trace", &doc); code != http.StatusOK {
		t.Fatalf("trace endpoint: HTTP %d", code)
	}
	jobs := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == "job" {
			jobs[e.Args["hash"].(string)]++
		}
	}
	return doc.OtherData["trace"], jobs
}

// TestTraceEndToEnd pins trace propagation on a local daemon: a sweep
// adopts the submitter's trace ID, its /trace document carries that ID and
// exactly one engine job span per executed hash, and a hash two sweeps
// share appears in both sweeps' traces.
func TestTraceEndToEnd(t *testing.T) {
	d := startDaemon(t, serve.Config{TraceSeed: 99}, sweep.Options{Workers: 2, Runner: fakeRunner(10 * time.Millisecond)})

	m := tracing.NewMinter(7)
	tc := tracing.Context{Trace: m.NextTrace(), Span: m.NextSpan()}
	gridA := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32, 64}}
	a := d.submitTraced(t, "trace", gridA, tc)
	if a.Trace != tc.Trace.String() {
		t.Fatalf("sweep trace = %q, want the submitted %q", a.Trace, tc.Trace)
	}
	a = d.waitFinished(t, a.Sweep, 10*time.Second)
	gridB := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{64, 128}}
	b := d.waitFinished(t, d.submit(t, "trace", gridB).Sweep, 10*time.Second)
	if a.Done != 4 || b.Done != 4 || executions(a, b) != 6 {
		t.Fatalf("sweeps: %+v / %+v, want 4 done each and 6 executions", a, b)
	}

	for _, v := range []*serve.SweepView{a, b} {
		trace, spans := d.fetchTrace(t, v.Sweep)
		if trace != v.Trace {
			t.Errorf("sweep %s: trace metadata %q, want %q", v.Sweep, trace, v.Trace)
		}
		if len(spans) != 4 {
			t.Errorf("sweep %s: job spans cover %d hashes, want its 4", v.Sweep, len(spans))
		}
		for _, j := range v.Jobs {
			if spans[j.Hash] != 1 {
				t.Errorf("sweep %s: %d job spans for %s, want 1", v.Sweep, spans[j.Hash], j.Name)
			}
		}
	}

	// The shared size-64 points ran once, for sweep a: b counts them as hits.
	inA := map[string]bool{}
	for _, j := range a.Jobs {
		inA[j.Hash] = true
	}
	shared := 0
	for _, j := range b.Jobs {
		if inA[j.Hash] {
			shared++
			if !j.CacheHit {
				t.Errorf("sweep b re-ran shared point %s (%s)", j.Name, j.Hash)
			}
		}
	}
	if shared != 2 {
		t.Errorf("sweeps share %d points, want 2", shared)
	}
}

// TestErrorEnvelope pins the JSON error contract: typed codes, the
// dsre-serve-error/v1 schema, and the caller's trace ID echoed back.
func TestErrorEnvelope(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1})

	m := tracing.NewMinter(11)
	tc := tracing.Context{Trace: m.NextTrace(), Span: m.NextSpan()}
	req, err := http.NewRequest(http.MethodGet, d.ts.URL+"/v1/sweeps/s-9999", nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.SetHeader(req.Header)
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: HTTP %d", resp.StatusCode)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("404 body is not a JSON envelope: %s", body)
	}
	if er.Schema != serve.ErrorSchema || er.Code != serve.ErrCodeNotFound || er.Message == "" {
		t.Errorf("404 envelope: %+v", er)
	}
	if er.Trace != tc.Trace.String() {
		t.Errorf("404 envelope trace = %q, want the caller's %q", er.Trace, tc.Trace)
	}

	// A malformed submit gets bad_request with a minted (non-empty) trace.
	code, body := d.post(t, "/v1/sweeps", "t", map[string]string{"schema": "wrong"})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed submit: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Code != serve.ErrCodeBadRequest || er.Trace == "" {
		t.Errorf("400 envelope: %s", body)
	}

	// A spec carrying a field this build no longer has (the retired
	// perfect-predictor flag, its name split so only history mentions it
	// whole) is refused, not run on the default predictor.
	retired := "perfect_block" + "_pred"
	code, body = d.post(t, "/v1/sweeps", "t", map[string]any{
		"schema": serve.SubmitSchema,
		"specs":  []map[string]any{{"workload": "vecsum", retired: true}},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), retired) {
		t.Errorf("submit with a retired spec field: HTTP %d: %s", code, body)
	}
}

// TestHealthz pins the JSON health document: schema, simulator and Go
// runtime versions, start time, and the draining status flip.
func TestHealthz(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, sweep.Options{Workers: 1})

	var h status.HealthView
	if code := d.get(t, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Schema != status.HealthSchema || h.Status != "ok" {
		t.Errorf("health view: %+v", h)
	}
	if h.SimVersion != sim.Version {
		t.Errorf("sim version = %q, want %q", h.SimVersion, sim.Version)
	}
	if h.GoVersion == "" || h.StartTimeMS <= 0 {
		t.Errorf("runtime fields missing: %+v", h)
	}

	d.srv.Drain("test", time.Second)
	if code := d.get(t, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz after drain: HTTP %d", code)
	}
	if h.Status != "draining" {
		t.Errorf("status after drain = %q, want draining", h.Status)
	}
}
