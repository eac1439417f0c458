package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/telemetry"
)

// realRecord runs one tiny-size simulation through the engine and returns
// the record a sweep would cache for it, so the store benchmarks and the
// payload round trip encode and decode a real report (histograms, CPI
// stack, forensics) rather than a hand-built one.
func realRecord(tb testing.TB) *Record {
	tb.Helper()
	spec := JobSpec{Workload: "histogram", Size: 128, Scheme: "dsre"}
	canon, err := spec.Canonical()
	if err != nil {
		tb.Fatal(err)
	}
	h, err := spec.Hash()
	if err != nil {
		tb.Fatal(err)
	}
	sum, err := New(Options{Workers: 1}).Run(context.Background(), []JobSpec{spec})
	if err != nil || sum.Jobs[0].Status != StatusOK {
		tb.Fatalf("simulate %s: %v %+v", spec.Name(), err, sum.Jobs[0])
	}
	return &Record{Hash: h, Spec: canon, Report: sum.Jobs[0].Report}
}

// BenchmarkStoreGet is one warm cache hit: read, verify and decode a stored
// record.
func BenchmarkStoreGet(b *testing.B) {
	rec := realRecord(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := st.Get(rec.Hash)
		if err != nil || got == nil {
			b.Fatalf("Get = (%v, %v), want a hit", got, err)
		}
	}
}

// BenchmarkStorePut is one fresh write as a cold sweep into a fresh store
// makes it: probe, seal, encode, create the object's shard directory and
// atomically place the record.  The shard directory is removed between
// iterations (untimed) so every Put creates it and writes.
func BenchmarkStorePut(b *testing.B) {
	rec := realRecord(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	shard := filepath.Dir(st.objectPath(rec.Hash))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(&Record{Hash: rec.Hash, Spec: rec.Spec, Report: rec.Report}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.RemoveAll(shard); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSpecHash is one spec's cache key through JobSpec.Hash, which
// encodes the machine configuration afresh every call.
func BenchmarkSpecHash(b *testing.B) {
	spec := JobSpec{Workload: "histogram", Size: 128, Seed: 2, Scheme: "storeset+flush"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Hash(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmPass is one whole warm pass: Engine.Run of a 42-spec tiny
// grid (every kernel under three schemes) against a store a cold pass
// filled, so it is keys, validation and 42 cache hits.
func BenchmarkWarmPass(b *testing.B) {
	var specs []JobSpec
	for _, w := range repro.Workloads() {
		for _, sc := range []string{"storeset+flush", "dsre", "oracle"} {
			specs = append(specs, JobSpec{Workload: w, Size: tinySizes[w], Scheme: sc})
		}
	}
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Workers: 1, Store: st}
	if sum, err := New(opts).Run(context.Background(), specs); err != nil || sum.OK != len(specs) {
		b.Fatalf("cold pass: %v, %s", err, sum.FirstError())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := New(opts).Run(context.Background(), specs)
		if err != nil || sum.CacheHits != len(specs) {
			b.Fatalf("warm pass: %v, %d of %d hits", err, sum.CacheHits, len(specs))
		}
	}
}

// BenchmarkDecodeReport is the decode step of a warm cache hit alone: one
// real report's stored payload into a telemetry.Report.
func BenchmarkDecodeReport(b *testing.B) {
	payload, err := json.Marshal(realRecord(b).Report)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep telemetry.Report
		if err := reportCodec.decode(payload, &rep); err != nil {
			b.Fatal(err)
		}
	}
}
