package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestReadObject reads files around the buffer's capacity, with and without
// a final newline, into a deliberately small buffer: every read returns the
// whole file.
func TestReadObject(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 15, 16, 17, 48, 1000} {
		for _, nl := range []bool{false, true} {
			data := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
			if nl && n > 0 {
				data[n-1] = '\n'
			}
			path := filepath.Join(dir, "f")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := readObject(path, make([]byte, 5, 16))
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("%d bytes (newline %v): read %d bytes, %v", n, nl, len(got), err)
			}
		}
	}
	if _, err := readObject(filepath.Join(dir, "missing"), nil); err == nil {
		t.Error("reading a missing file succeeded")
	}
	if _, err := readObject(dir, nil); err == nil {
		t.Error("reading a directory succeeded")
	}
}

// putFake stores a fake record for spec and returns its hash and report.
func putFake(t *testing.T, st *DirStore, spec JobSpec) (string, *telemetry.Report) {
	t.Helper()
	h := mustHash(t, spec)
	rep := fakeReport(spec)
	if err := st.Put(&Record{Hash: h, Spec: spec, Report: rep}); err != nil {
		t.Fatal(err)
	}
	return h, rep
}

// TestStoreReadsDoNotAlias reads two records back to back through the
// pooled read buffer: the first record must be unchanged by the second
// read, so nothing decoded aliases the buffer.
func TestStoreReadsDoNotAlias(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specA := JobSpec{Workload: "vecsum", Scheme: "dsre"}
	specB := JobSpec{Workload: "sort", Scheme: "oracle", Frames: 16}
	ha, repA := putFake(t, st, specA)
	hb, repB := putFake(t, st, specB)

	payload, err := json.Marshal(repA)
	if err != nil {
		t.Fatal(err)
	}
	want := &Record{Schema: RecordSchema, Hash: ha, SimVersion: sim.Version,
		PayloadSHA256: payloadDigest(payload), Spec: specA, Report: repA}

	a, err := st.Get(ha)
	if err != nil || a == nil {
		t.Fatalf("Get(a) = (%v, %v)", a, err)
	}
	b, err := st.Get(hb)
	if err != nil || b == nil {
		t.Fatalf("Get(b) = (%v, %v)", b, err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("first record changed by the second read:\n%+v\nwant\n%+v", a, want)
	}
	if b.Hash != hb || b.Spec != specB || !reflect.DeepEqual(b.Report, repB) {
		t.Errorf("second record read back wrong: %+v", b)
	}
}

// TestStoreReadsLargeObjects reads records larger than the pool's initial
// 8 KiB buffer, and larger than the largest buffer it keeps, as hits.
func TestStoreReadsLargeObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	specs := []JobSpec{
		{Workload: "vecsum", Size: 256, SampleEvery: 40},
		{Workload: "vecsum", Size: 256, SampleEvery: 5},
	}
	reps := runReports(t, specs)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		h := mustHash(t, spec)
		if err := st.Put(&Record{Hash: h, Spec: spec, Report: reps[i]}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(st.objectPath(h))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := st.Get(h)
		if err != nil || rec == nil {
			t.Fatalf("%d-byte object: Get = (%v, %v), want a hit", fi.Size(), rec, err)
		}
		got, _ := json.Marshal(rec.Report)
		want, _ := json.Marshal(reps[i])
		if !bytes.Equal(got, want) {
			t.Errorf("%d-byte object: report read back differs", fi.Size())
		}
		sizes := []int64{8 << 10, maxPooledRead}
		if fi.Size() <= sizes[i] {
			t.Errorf("object %d is %d bytes, want over %d for the test to mean anything", i, fi.Size(), sizes[i])
		}
	}
}

// TestStoreConcurrentGets has four goroutines read the same records at
// once (run it under -race): every read returns its own record's report.
func TestStoreConcurrentGets(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	var reps []*telemetry.Report
	for _, w := range []string{"vecsum", "histogram", "stencil", "sort", "bank"} {
		h, rep := putFake(t, st, JobSpec{Workload: w, Frames: len(w)})
		hashes = append(hashes, h)
		reps = append(reps, rep)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(hashes)
				rec, err := st.Get(hashes[k])
				if err != nil || rec == nil || !reflect.DeepEqual(rec.Report, reps[k]) {
					errs <- hashes[k]
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for h := range errs {
		t.Errorf("concurrent Get of %s returned a wrong record", h)
	}
}
