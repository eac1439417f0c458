package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestStoreByteFlipIsMiss flips one byte of a cached payload on disk and
// pins the integrity contract: the record reads as a miss (never a wrong
// result), the corruption hook fires, an engine wired to the store
// recomputes the point and emits the structured store_corrupt event, and
// the recomputed record replaces the corrupt object, so the next read hits.
func TestStoreByteFlipIsMiss(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: "vecsum", Frames: 4}
	h := mustHash(t, spec)
	if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte without breaking the JSON framing, so the record
	// still parses and only SHA-256 verification can catch it.
	editObject(t, st, h, `"cycles":100`, `"cycles":101`)

	var hooked []string
	st.SetOnCorrupt(func(hash, detail string) { hooked = append(hooked, hash+" "+detail) })
	if rec, err := st.Get(h); err != nil || rec != nil {
		t.Errorf("flipped record Get = (%v, %v), want miss", rec, err)
	}
	if len(hooked) != 1 || !strings.Contains(hooked[0], h) {
		t.Errorf("corruption hook calls: %v", hooked)
	}

	// An engine over the corrupt store recomputes and reports the event.
	o, log, _ := newObserved()
	ran := 0
	eng := New(Options{Workers: 1, Store: st, Obs: o, Runner: func(ctx context.Context, s JobSpec) (*telemetry.Report, error) {
		ran++
		return fakeReport(s), nil
	}})
	sum, err := eng.Run(context.Background(), []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || sum.Jobs[0].CacheHit || sum.Jobs[0].Status != StatusOK {
		t.Errorf("corrupt record not recomputed: ran=%d result=%+v", ran, sum.Jobs[0])
	}
	events, err := obs.ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sawCorrupt := false
	for _, e := range events {
		if e.Kind == obs.EventStoreCorrupt && e.Job == h {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Error("no store_corrupt event for the flipped record")
	}

	// The recomputed record replaced the corrupt object.
	if rec, err := st.Get(h); err != nil || rec == nil || rec.Report.Cycles != 100 {
		t.Errorf("Get after the recomputing sweep = (%v, %v), want the recomputed record", rec, err)
	}
	if len(hooked) != 1 {
		t.Errorf("healed object still reported corrupt: %v", hooked)
	}
	if sum, err = eng.Run(context.Background(), []JobSpec{spec}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || !sum.Jobs[0].CacheHit {
		t.Errorf("second sweep over the healed object: ran=%d result=%+v, want a hit", ran, sum.Jobs[0])
	}
}

// editObject replaces the first occurrence of old with new in a stored
// object's bytes.
func editObject(t *testing.T, st *DirStore, hash, old, new string) {
	t.Helper()
	data, err := os.ReadFile(st.objectPath(hash))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(old), []byte(new), 1)
	if bytes.Equal(edited, data) {
		t.Fatalf("%s not found in object %s", old, hash)
	}
	if err := os.WriteFile(st.objectPath(hash), edited, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreObjectDamageIsMiss pins how each kind of damaged object reads.
// An edited header field is a plain miss: the object is not what this
// build addresses, but nothing in it lies.  A truncated payload fails
// verification and reports through the hook.  A file with no line break
// and an object in the retired single-document layout are plain misses,
// and the next Put replaces them.
func TestStoreObjectDamageIsMiss(t *testing.T) {
	spec := JobSpec{Workload: "vecsum", Frames: 4}
	h := mustHash(t, spec)
	other := mustHash(t, JobSpec{Workload: "vecsum", Frames: 8})
	cases := []struct {
		name    string
		damage  func(t *testing.T, st *DirStore)
		corrupt bool // the hook fires
	}{
		{"header hash", func(t *testing.T, st *DirStore) {
			editObject(t, st, h, `"hash":"`+h, `"hash":"`+other)
		}, false},
		{"header sim_version", func(t *testing.T, st *DirStore) {
			editObject(t, st, h, `"sim_version":"`+sim.Version, `"sim_version":"dsre-sim/v0`)
		}, false},
		{"header schema", func(t *testing.T, st *DirStore) {
			editObject(t, st, h, `"schema":"`+RecordSchema, `"schema":"dsre-sweep-record/v2`)
		}, false},
		{"header sha", func(t *testing.T, st *DirStore) {
			editObject(t, st, h, `"payload_sha256":"`, `"payload_sha256":"0`)
		}, true},
		{"truncated payload", func(t *testing.T, st *DirStore) {
			data, err := os.ReadFile(st.objectPath(h))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.objectPath(h), data[:len(data)-10], 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"no newline", func(t *testing.T, st *DirStore) {
			data, err := os.ReadFile(st.objectPath(h))
			if err != nil {
				t.Fatal(err)
			}
			line, _, _ := bytes.Cut(data, []byte{'\n'})
			if err := os.WriteFile(st.objectPath(h), line, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"v2 single document", func(t *testing.T, st *DirStore) {
			rec := &Record{Hash: h, Spec: spec, Report: fakeReport(spec)}
			if _, err := rec.seal(); err != nil {
				t.Fatal(err)
			}
			rec.Schema = "dsre-sweep-record/v2"
			data, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.objectPath(h), append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, st)
			hooked := 0
			st.SetOnCorrupt(func(string, string) { hooked++ })
			if rec, err := st.Get(h); err != nil || rec != nil {
				t.Errorf("damaged object Get = (%v, %v), want miss", rec, err)
			}
			if corrupt := hooked > 0; corrupt != tc.corrupt {
				t.Errorf("corruption hook fired %d times, want fired=%v", hooked, tc.corrupt)
			}
			if err := st.Put(&Record{Hash: h, Spec: spec, Report: fakeReport(spec)}); err != nil {
				t.Fatal(err)
			}
			if rec, err := st.Get(h); err != nil || rec == nil {
				t.Errorf("Get after Put over the damaged object = (%v, %v), want a hit", rec, err)
			}
		})
	}
}

// TestStorePayloadRoundTrip pins that the stored payload is exactly the
// report's canonical encoding: re-encoding the report Get decodes gives
// the stored bytes back, and those bytes hash to the header's digest.  It
// uses a real report, whose histograms and CPI stack have their own JSON
// codecs.
func TestStorePayloadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := realRecord(t)
	h := put.Hash
	if err := st.Put(put); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(h)
	if err != nil || rec == nil {
		t.Fatalf("Get = (%v, %v)", rec, err)
	}
	data, err := os.ReadFile(st.objectPath(h))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte{'\n'})
	if len(lines) != 3 || len(lines[2]) != 0 {
		t.Fatalf("object has %d lines, want a header line and a payload line", len(lines)-1)
	}
	again, err := json.Marshal(rec.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, lines[1]) {
		t.Errorf("re-encoded report differs from the stored payload:\n%s\n%s", again, lines[1])
	}
	if sum := payloadDigest(again); sum != rec.PayloadSHA256 {
		t.Errorf("re-encoded report hashes to %s, header says %s", sum, rec.PayloadSHA256)
	}
}

// TestStoreRejectsMalformedHash pins that only a spec hash addresses an
// object: a traversal, a short or an uppercase hash is an error from Get
// and Put, and nothing is written beside the store.
func TestStoreRejectsMalformedHash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: "vecsum"}
	h := mustHash(t, spec)
	for _, bad := range []string{"../escaped/x", "../../" + h, "", "ab", strings.ToUpper(h), h + "0", h[:63] + "/"} {
		if rec, err := st.Get(bad); err == nil || rec != nil {
			t.Errorf("Get(%q) = (%v, %v), want an error", bad, rec, err)
		}
		if err := st.Put(&Record{Hash: bad, Spec: spec, Report: fakeReport(spec)}); err == nil {
			t.Errorf("Put(%q) succeeded", bad)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store" {
		t.Errorf("entries beside the store: %v", entries)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("Len = (%d, %v), want 0", n, err)
	}
}

// TestManifestSchemaError pins the typed -resume failure: a manifest from
// a newer schema version (or a foreign document) surfaces *SchemaError
// with Newer() telling the two apart, instead of a generic unmarshal
// error.
func TestManifestSchemaError(t *testing.T) {
	dir := t.TempDir()
	write := func(name, schema string) string {
		path := dir + "/" + name
		body := `{"schema": "` + schema + `", "jobs": [], "totals": {}}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	_, err := ReadManifest(write("newer.json", "dsre-sweep-manifest/v99"))
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("newer manifest: want *SchemaError, got %v", err)
	}
	if !se.Newer() {
		t.Errorf("v99 manifest not detected as newer: %+v", se)
	}
	if !strings.Contains(err.Error(), "newer than this build") {
		t.Errorf("newer-schema message lacks guidance: %v", err)
	}

	_, err = ReadManifest(write("foreign.json", "dsre-report/v1"))
	if !errors.As(err, &se) {
		t.Fatalf("foreign document: want *SchemaError, got %v", err)
	}
	if se.Newer() {
		t.Errorf("same-version foreign schema flagged as newer: %+v", se)
	}

	// The current schema still reads.
	if _, err := ReadManifest(write("ok.json", ManifestSchema)); err != nil {
		t.Errorf("current schema rejected: %v", err)
	}

	// A spec field this build no longer has (the retired perfect-predictor
	// flag, its name split so only history mentions it whole) fails instead
	// of resuming on the two-level predictor.
	retired := "perfect_block" + "_pred"
	path := dir + "/retired.json"
	body := `{"schema": "` + ManifestSchema + `", "jobs": [{"spec": {"workload": "vecsum", "` + retired + `": true}}], "totals": {}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), retired) {
		t.Errorf("manifest with a retired spec field: err = %v, want an unknown-field error", err)
	}
}
