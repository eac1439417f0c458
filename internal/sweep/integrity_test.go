package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestStoreByteFlipIsMiss flips one byte of a cached payload on disk and
// pins the integrity contract: the record reads as a miss (never a wrong
// result), the corruption hook fires, and an engine wired to the store
// recomputes the point and emits the structured store_corrupt event.
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
	data, err := os.ReadFile(st.objectPath(h))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(data, []byte(`"cycles": 100`), []byte(`"cycles": 101`), 1)
	if bytes.Equal(flipped, data) {
		t.Fatal("payload byte to flip not found in record")
	}
	if err := os.WriteFile(st.objectPath(h), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

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
