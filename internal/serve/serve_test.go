package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
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

// startDaemon builds and starts a daemon.  localWorkers > 0 wires a local
// engine driven by fakeRunner(runnerDelay); 0 runs fleet-only.
func startDaemon(t *testing.T, cfg serve.Config, localWorkers int, runnerDelay time.Duration) *daemon {
	t.Helper()
	store, err := sweep.OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	reg := obs.NewRegistry()
	start := time.Now()
	spans := obs.NewSpanLog()
	cfg.Store = store
	cfg.Obs = obs.NewServeObs(reg, start, sink, spans, localWorkers)
	cfg.Sink = sink
	if localWorkers > 0 {
		engObs := obs.NewSweepObsInto(reg, start, sink, spans)
		cfg.Engine = sweep.New(sweep.Options{
			Workers: localWorkers, Store: store, Obs: engObs, Runner: fakeRunner(runnerDelay),
		})
		cfg.EngineObs = engObs
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
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

func (d *daemon) progress(t *testing.T) *obs.ServeProgressView {
	t.Helper()
	var v obs.ServeProgressView
	if code := d.get(t, "/progress", &v); code != http.StatusOK {
		t.Fatalf("/progress: HTTP %d", code)
	}
	return &v
}

func testGrid() *sweep.Grid {
	return &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32}}
}

// TestDaemonEndToEndLocal drives the full local-execution path over HTTP:
// submit, poll to completion, fetch manifest and per-artifact reports, and
// pin the served report bytes to what the runner produces directly.
func TestDaemonEndToEndLocal(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, 2, 0)

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
	// live execution.
	p := d.progress(t)
	tot := p.Totals
	if tot.Specs != 4 || tot.Executions != 2 || tot.CacheHits+tot.Executions != tot.Specs {
		t.Errorf("totals: specs %d = hits %d + executions %d expected", tot.Specs, tot.CacheHits, tot.Executions)
	}
	if tot.Queued != 0 || tot.Leased != 0 {
		t.Errorf("queue not drained: %+v", tot)
	}
	if p.Engine == nil {
		t.Error("progress: engine view missing on a local daemon")
	}
}

// TestConcurrentSubmitDedup submits the same grid from several clients at
// once and asserts content-addressed dedup: each unique point executes at
// most once, nothing is lost, and the event log reconciles with the
// submitted spec count.
func TestConcurrentSubmitDedup(t *testing.T) {
	d := startDaemon(t, serve.Config{}, 2, 30*time.Millisecond)

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
	for _, v := range views {
		fin := d.waitFinished(t, v.Sweep, 10*time.Second)
		if fin.Done != 2 || fin.Failed != 0 {
			t.Fatalf("sweep %s: done %d failed %d, want 2/0", fin.Sweep, fin.Done, fin.Failed)
		}
	}

	p := d.progress(t)
	tot := p.Totals
	if tot.Executions != 2 {
		t.Errorf("executions = %d for 2 unique points (duplicated work)", tot.Executions)
	}
	if tot.UploadDuplicates != 0 {
		t.Errorf("upload duplicates = %d in a crash-free run", tot.UploadDuplicates)
	}
	if tot.Specs != clients*2 || tot.CacheHits+tot.Executions != tot.Specs || tot.Failed != 0 {
		t.Errorf("accounting: specs %d, hits %d, executions %d, failed %d", tot.Specs, tot.CacheHits, tot.Executions, tot.Failed)
	}

	// Event-log reconciliation: submitted spec copies == engine job_done
	// copies + cache-satisfied copies (metrics fold of submit hits and
	// dedup copies).
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
	if int64(engineDone) != tot.Executions {
		t.Errorf("event log: %d engine job_done events, metrics say %d executions", engineDone, tot.Executions)
	}
	if int64(submitted) != tot.CacheHits+int64(engineDone) {
		t.Errorf("event log: %d specs != %d cache hits + %d executions", submitted, tot.CacheHits, engineDone)
	}
}

// TestFleetWorkerCrashRequeue kills a worker mid-job through the
// crash-injection hook and asserts the lease expires, the job requeues,
// a second worker completes it, and manifest totals reconcile with the
// daemon's metrics.
func TestFleetWorkerCrashRequeue(t *testing.T) {
	d := startDaemon(t, serve.Config{LeaseTTL: 150 * time.Millisecond, MaxAttempts: 3}, 0, 0)

	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre"}, Sizes: []int{32}}
	v := d.submit(t, "fleet", grid)
	if v.Unique != 1 {
		t.Fatalf("submit: unique %d, want 1", v.Unique)
	}

	// Worker A leases the only job and dies on it.
	crash := fmt.Errorf("injected crash")
	wa, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: d.ts.URL, ID: "crashy",
		Engine:  sweep.New(sweep.Options{Workers: 1, Runner: fakeRunner(0)}),
		Poll:    10 * time.Millisecond,
		OnLease: func(hash string) error { return crash },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wa.Run(context.Background()); err != crash {
		t.Fatalf("crashy worker Run = %v, want injected crash", err)
	}

	// Worker B picks the requeued job up once the lease expires.
	wb, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: d.ts.URL, ID: "steady",
		Engine: sweep.New(sweep.Options{Workers: 1, Runner: fakeRunner(0)}),
		Poll:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wbDone := make(chan error, 1)
	go func() { wbDone <- wb.Run(ctx) }()

	fin := d.waitFinished(t, v.Sweep, 10*time.Second)
	cancel()
	if err := <-wbDone; err != nil {
		t.Fatalf("steady worker: %v", err)
	}
	if fin.Done != 1 || fin.Failed != 0 {
		t.Fatalf("sweep after crash: done %d failed %d, want 1/0", fin.Done, fin.Failed)
	}
	if wb.JobsDone() != 1 {
		t.Errorf("steady worker completed %d jobs, want 1", wb.JobsDone())
	}

	p := d.progress(t)
	tot := p.Totals
	if tot.LeaseExpiries < 1 || tot.Requeues < 1 {
		t.Errorf("expiries %d, requeues %d, want >= 1 each", tot.LeaseExpiries, tot.Requeues)
	}
	if tot.Done != 1 || tot.Failed != 0 || tot.Executions != 1 || tot.Uploads != 1 {
		t.Errorf("totals after crash: %+v", tot)
	}
	if tot.Queued != 0 || tot.Leased != 0 {
		t.Errorf("dangling queue state after recovery: %+v", tot)
	}

	// Manifest totals reconcile with the metrics.
	var m sweep.Manifest
	if code := d.get(t, "/v1/sweeps/"+v.Sweep+"/manifest", &m); code != http.StatusOK {
		t.Fatalf("manifest: HTTP %d", code)
	}
	if int64(m.Totals.OK) != tot.Done || int64(m.Totals.Failed) != tot.Failed {
		t.Errorf("manifest totals %+v do not reconcile with metrics %+v", m.Totals, tot)
	}

	// Event log shows the crash story in order: lease to crashy, expiry,
	// requeue, successful upload from steady.
	if n := d.sink.count(obs.EventLeaseExpired, func(e obs.Event) bool { return e.Peer == "crashy" }); n < 1 {
		t.Errorf("no lease_expired event for the crashed worker")
	}
	if n := d.sink.count(obs.EventRequeue, nil); n < 1 {
		t.Errorf("no requeue event after lease expiry")
	}
	if n := d.sink.count(obs.EventUpload, func(e obs.Event) bool {
		return e.Peer == "steady" && e.Status == sweep.StatusOK
	}); n != 1 {
		t.Errorf("uploads from steady = %d, want 1", n)
	}
}

// TestDrainFlushesManifests pins graceful shutdown: draining refuses new
// submits and leases, flushes one manifest per sweep, and emits the drain
// event.
func TestDrainFlushesManifests(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, serve.Config{BatchLinger: -1, ManifestDir: dir}, 1, 0)

	v := d.submit(t, "drain", testGrid())
	d.waitFinished(t, v.Sweep, 5*time.Second)
	d.srv.Drain("test", 3*time.Second)

	if code := d.get(t, "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after drain: HTTP %d", code)
	}
	if code, _ := d.post(t, "/v1/sweeps", "drain", serve.SubmitRequest{Schema: serve.SubmitSchema, Grid: testGrid()}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}
	req := serve.LeaseRequest{Schema: serve.LeaseSchema, Worker: "w"}
	if code, _ := d.post(t, "/v1/fleet/lease", "", req); code != http.StatusNoContent {
		t.Errorf("lease while draining: HTTP %d, want 204", code)
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

// TestQueueFirstWriteWins exercises the lease table directly: a late
// upload from an expired lease still completes the job, and the current
// leaseholder's upload then drops as a duplicate.
func TestQueueFirstWriteWins(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewServeObs(reg, time.Now(), nil, nil, 0)
	q := serve.NewQueue(o, 100*time.Millisecond, 3, nil)

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	q.Submit("t", []sweep.JobSpec{spec}, []string{h}, nil, tracing.TraceID{}, now)

	// Worker 1 leases, then its lease expires; the job requeues and
	// worker 2 leases it.
	l1, ok := q.Lease("w1", false, now)
	if !ok {
		t.Fatal("no lease for queued job")
	}
	if n := q.ExpireLeases(now.Add(time.Second), false); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	l2, ok := q.Lease("w2", false, now.Add(time.Second))
	if !ok {
		t.Fatal("requeued job not leasable")
	}
	if l2.Attempt != 2 {
		t.Errorf("second lease attempt = %d, want 2", l2.Attempt)
	}

	// Worker 1's late upload (dead lease) wins first-write.
	res := sweep.JobResult{Hash: h, Status: sweep.StatusOK}
	acc, dup, state, err := q.Complete(l1.Lease, "w1", h, res, true, now.Add(2*time.Second))
	if err != nil || !acc || dup || state != serve.JobDone {
		t.Fatalf("late upload: acc=%v dup=%v state=%v err=%v", acc, dup, state, err)
	}
	// Worker 2's upload is now a duplicate.
	acc, dup, state, err = q.Complete(l2.Lease, "w2", h, res, true, now.Add(3*time.Second))
	if err != nil || acc || !dup || state != serve.JobDone {
		t.Fatalf("duplicate upload: acc=%v dup=%v state=%v err=%v", acc, dup, state, err)
	}
	if fin, ok := q.Finished("s-0001"); !ok || !fin {
		t.Errorf("sweep not finished after first write")
	}
	if q.QueuedLen() != 0 || q.FleetLeases() != 0 {
		t.Errorf("queue state leaked: queued %d leases %d", q.QueuedLen(), q.FleetLeases())
	}

	// Unknown hash is rejected.
	if _, _, _, err := q.Complete("", "w3", "feedbeef", res, true, now); err == nil {
		t.Error("completion for unknown job accepted")
	}
}

// TestQueueExhaustsAttempts pins terminal failure: after MaxAttempts
// failed uploads the job fails for good and the sweep finishes failed.
func TestQueueExhaustsAttempts(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.NewServeObs(reg, time.Now(), nil, nil, 0)
	q := serve.NewQueue(o, time.Second, 2, nil)

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	h, _ := spec.Hash()
	now := time.Now()
	id := q.Submit("t", []sweep.JobSpec{spec}, []string{h}, nil, tracing.TraceID{}, now)

	for i := 1; i <= 2; i++ {
		l, ok := q.Lease("w", false, now)
		if !ok {
			t.Fatalf("attempt %d: job not leasable", i)
		}
		res := sweep.JobResult{Hash: h, Status: sweep.StatusFailed, Error: "boom"}
		_, _, state, err := q.Complete(l.Lease, "w", h, res, true, now)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && state != serve.JobQueued {
			t.Fatalf("attempt %d: state %v, want requeued", i, state)
		}
		if i == 2 && state != serve.JobFailed {
			t.Fatalf("final attempt: state %v, want failed", state)
		}
	}
	v, _ := q.View(id, true)
	if !v.Finished || v.Failed != 1 {
		t.Errorf("sweep after exhausted attempts: %+v", v)
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
	if err := good.Seal(); err != nil {
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
	d := startDaemon(t, serve.Config{BatchLinger: -1}, 1, 0)

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

// TestArtifactPutRejections pins upload validation: wrong address, missing
// payload and version skew are refused with typed statuses.
func TestArtifactPutRejections(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, 1, 0)

	spec := sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}
	canon, _ := spec.Canonical()
	h, _ := spec.Hash()
	rep, _ := fakeRunner(0)(context.Background(), spec)
	rec := &sweep.Record{Hash: h, Spec: canon, Report: rep}
	if err := rec.Seal(); err != nil {
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
	if code := put("/v1/artifacts/deadbeef", rec); code != http.StatusBadRequest {
		t.Errorf("address mismatch: HTTP %d, want 400", code)
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

// TestWorkerFleetEndToEnd runs a fleet-only daemon with two healthy
// workers sharing a grid and pins clean-fleet accounting.
func TestWorkerFleetEndToEnd(t *testing.T) {
	d := startDaemon(t, serve.Config{LeaseTTL: time.Second}, 0, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 2)
	for _, id := range []string{"w1", "w2"} {
		w, err := serve.NewWorker(serve.WorkerOptions{
			BaseURL: d.ts.URL, ID: id,
			Engine: sweep.New(sweep.Options{Workers: 1, Runner: fakeRunner(5 * time.Millisecond)}),
			Poll:   10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- w.Run(ctx) }()
	}

	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle", "conservative"}, Sizes: []int{32}}
	v := d.submit(t, "fleet", grid)
	fin := d.waitFinished(t, v.Sweep, 10*time.Second)
	if fin.Done != 3 || fin.Failed != 0 {
		t.Fatalf("fleet sweep: %+v", fin)
	}
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	p := d.progress(t)
	tot := p.Totals
	if tot.Executions != 3 || tot.Uploads != 3 || tot.UploadDuplicates != 0 || tot.Failed != 0 {
		t.Errorf("fleet totals: %+v", tot)
	}
	if len(p.Workers) != 2 {
		t.Errorf("progress lists %d workers, want 2", len(p.Workers))
	}
	// Heartbeat path: with a 1s TTL and 5ms jobs there may be none, but the
	// daemon must never have expired a healthy worker's lease.
	if tot.LeaseExpiries != 0 || tot.Requeues != 0 {
		t.Errorf("healthy fleet saw expiries %d / requeues %d", tot.LeaseExpiries, tot.Requeues)
	}
}

// startTracedWorker runs a fleet worker whose engine records spans into its
// own local SpanLog, which the worker ships with every completion upload.
func startTracedWorker(t *testing.T, d *daemon, id string, delay time.Duration, onLease func(string) error) (cancel func(), done chan error) {
	t.Helper()
	wspans := obs.NewSpanLog()
	engObs := obs.NewSweepObsInto(obs.NewRegistry(), time.Now(), nil, wspans)
	w, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: d.ts.URL, ID: id,
		Engine:  sweep.New(sweep.Options{Workers: 1, Runner: fakeRunner(delay), Obs: engObs}),
		Poll:    5 * time.Millisecond,
		Spans:   wspans,
		OnLease: onLease,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return stop, done
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

// fetchStitched downloads and parses the stitched cross-process trace for a
// sweep.
func (d *daemon) fetchStitched(t *testing.T, sweepID string) []map[string]any {
	t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + "/v1/sweeps/" + sweepID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: HTTP %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stitched trace is not JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestTraceEndToEnd drives a two-worker fleet under one client-supplied
// trace: the sweep adopts the inbound trace ID, every daemon- and
// worker-side chain carries it, the stitched trace shows both worker
// processes with a run span per executed job, and the telescoping invariant
// (worker wall time inside the daemon's lease-held window) reconciles.
func TestTraceEndToEnd(t *testing.T) {
	d := startDaemon(t, serve.Config{LeaseTTL: 5 * time.Second, TraceSeed: 99}, 0, 0)

	stopA, doneA := startTracedWorker(t, d, "w1", 40*time.Millisecond, nil)
	stopB, doneB := startTracedWorker(t, d, "w2", 40*time.Millisecond, nil)

	m := tracing.NewMinter(7)
	tc := tracing.Context{Trace: m.NextTrace(), Span: m.NextSpan()}
	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32, 64}}
	v := d.submitTraced(t, "trace", grid, tc)
	if v.Trace != tc.Trace.String() {
		t.Fatalf("sweep trace = %q, want the submitted %q", v.Trace, tc.Trace)
	}

	fin := d.waitFinished(t, v.Sweep, 10*time.Second)
	stopA()
	stopB()
	if err := <-doneA; err != nil {
		t.Fatalf("worker w1: %v", err)
	}
	if err := <-doneB; err != nil {
		t.Fatalf("worker w2: %v", err)
	}
	if fin.Done != 4 || fin.Failed != 0 {
		t.Fatalf("fleet sweep: %+v", fin)
	}

	// Every recorded chain — daemon-side and shipped worker-side — carries
	// the client's trace ID.
	chains := d.spans.Jobs()
	workerOrigins := map[string]int{}
	for _, c := range chains {
		if c.Trace != tc.Trace.String() {
			t.Errorf("chain %s (origin %s) trace = %q, want %q", c.Hash, c.Origin, c.Trace, tc.Trace)
		}
		if c.Origin != tracing.OriginDaemon {
			workerOrigins[c.Origin]++
		}
	}
	if len(workerOrigins) != 2 {
		t.Fatalf("shipped chains from origins %v, want both w1 and w2", workerOrigins)
	}

	// The stitched trace has one process per party and one worker-side run
	// span per executed job.
	events := d.fetchStitched(t, v.Sweep)
	procs := map[string]bool{}
	workerJobHashes := map[string]bool{}
	runSpans := 0
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "process_name" {
			procs[e["args"].(map[string]any)["name"].(string)] = true
		}
		if e["ph"] != "X" {
			continue
		}
		switch e["cat"] {
		case "job":
			args := e["args"].(map[string]any)
			if args["trace"] != tc.Trace.String() {
				t.Errorf("stitched job span has foreign trace %v", args["trace"])
			}
			if args["origin"] != tracing.OriginDaemon {
				workerJobHashes[args["hash"].(string)] = true
			}
		case "phase":
			if e["name"] == "run" && e["pid"].(float64) > 0 {
				runSpans++
			}
		}
	}
	for _, p := range []string{"daemon", "worker w1", "worker w2"} {
		if !procs[p] {
			t.Errorf("stitched trace missing process %q (have %v)", p, procs)
		}
	}
	if len(workerJobHashes) != 4 {
		t.Errorf("worker-side job spans cover %d hashes, want all 4 executed jobs", len(workerJobHashes))
	}
	if runSpans < 4 {
		t.Errorf("worker-side run spans = %d, want >= 1 per executed job (4)", runSpans)
	}

	// Telescoping: each worker chain's wall time fits inside the daemon's
	// lease-held window within tolerance.
	if bad := tracing.Reconcile(chains, time.Second); len(bad) != 0 {
		t.Errorf("telescoping violations: %+v", bad)
	}
}

// TestWorkerCrashTraceStitching pins trace stitching across a crash-requeue:
// the abandoned attempt and the successful retry appear as separate chains
// under one trace with distinct span IDs, and the shipped worker chain
// matches the retry's span.
func TestWorkerCrashTraceStitching(t *testing.T) {
	d := startDaemon(t, serve.Config{LeaseTTL: 150 * time.Millisecond, MaxAttempts: 3, TraceSeed: 5}, 0, 0)

	grid := &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre"}, Sizes: []int{32}}
	v := d.submit(t, "fleet", grid)
	h, err := (sweep.JobSpec{Workload: "vecsum", Scheme: "dsre", Size: 32}).Hash()
	if err != nil {
		t.Fatal(err)
	}

	// Worker A leases the only job and dies on it; worker B completes the
	// requeued attempt.
	crash := fmt.Errorf("injected crash")
	wa, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: d.ts.URL, ID: "crashy",
		Engine:  sweep.New(sweep.Options{Workers: 1, Runner: fakeRunner(0)}),
		Poll:    10 * time.Millisecond,
		OnLease: func(string) error { return crash },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wa.Run(context.Background()); err != crash {
		t.Fatalf("crashy worker Run = %v, want injected crash", err)
	}
	stopB, doneB := startTracedWorker(t, d, "steady", 0, nil)
	fin := d.waitFinished(t, v.Sweep, 10*time.Second)
	stopB()
	if err := <-doneB; err != nil {
		t.Fatalf("steady worker: %v", err)
	}
	if fin.Done != 1 || fin.Failed != 0 {
		t.Fatalf("sweep after crash: %+v", fin)
	}

	var abandoned, completed, shipped []obs.JobSpans
	for _, c := range d.spans.Jobs() {
		if c.Hash != h {
			continue
		}
		switch {
		case c.Origin != tracing.OriginDaemon:
			shipped = append(shipped, c)
		case c.Status == "abandoned":
			abandoned = append(abandoned, c)
		default:
			completed = append(completed, c)
		}
	}
	if len(abandoned) != 1 || len(completed) != 1 || len(shipped) != 1 {
		t.Fatalf("chains: %d abandoned, %d completed, %d shipped; want 1 each", len(abandoned), len(completed), len(shipped))
	}
	if abandoned[0].Trace != fin.Trace || completed[0].Trace != fin.Trace {
		t.Errorf("attempts do not share the sweep trace %q: %q / %q", fin.Trace, abandoned[0].Trace, completed[0].Trace)
	}
	if abandoned[0].Span == completed[0].Span || abandoned[0].Span == "" {
		t.Errorf("attempts share span ID %q; each lease attempt needs its own", abandoned[0].Span)
	}
	if abandoned[0].Peer != "crashy" || completed[0].Peer != "steady" {
		t.Errorf("attempt peers = %q / %q, want crashy then steady", abandoned[0].Peer, completed[0].Peer)
	}
	if shipped[0].Span != completed[0].Span || shipped[0].Origin != "steady" || shipped[0].Attempt != completed[0].Attempt {
		t.Errorf("shipped chain %+v does not match the completing attempt %+v", shipped[0], completed[0])
	}

	// Both attempts appear in the stitched trace, and the abandoned one
	// never picked up a worker-side chain; Reconcile skips it.
	daemonJobSpans := 0
	for _, e := range d.fetchStitched(t, v.Sweep) {
		if e["ph"] == "X" && e["cat"] == "job" {
			if e["args"].(map[string]any)["origin"] == tracing.OriginDaemon {
				daemonJobSpans++
			}
		}
	}
	if daemonJobSpans != 2 {
		t.Errorf("stitched daemon-side job spans = %d, want both attempts", daemonJobSpans)
	}
	if bad := tracing.Reconcile(d.spans.Jobs(), time.Second); len(bad) != 0 {
		t.Errorf("telescoping violations after crash-requeue: %+v", bad)
	}
}

// TestErrorEnvelope pins the JSON error contract: typed codes, the
// dsre-serve-error/v1 schema, and the caller's trace ID echoed back.
func TestErrorEnvelope(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, 1, 0)

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

	// A completion against a dead lease 404s through the same envelope.
	code, body = d.post(t, "/v1/fleet/complete", "", serve.CompleteRequest{
		Schema: serve.CompleteSchema, Lease: "nope", Worker: "w", Hash: "feedbeef",
		Status: sweep.StatusFailed, Error: "boom",
	})
	if code != http.StatusNotFound {
		t.Fatalf("complete with dead lease: HTTP %d (%s)", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Code != serve.ErrCodeLeaseGone {
		t.Errorf("lease-gone envelope: %s", body)
	}
}

// TestHealthz pins the JSON health document: schema, simulator and Go
// runtime versions, start time, and the draining status flip.
func TestHealthz(t *testing.T) {
	d := startDaemon(t, serve.Config{BatchLinger: -1}, 1, 0)

	var h serve.HealthView
	if code := d.get(t, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Schema != serve.HealthSchema || h.Status != "ok" {
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
