package sweep

import (
	"context"
	"encoding/json"
	"os"
	"testing"

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

// BenchmarkStorePut is one fresh write: seal, encode and atomically place a
// record.  The object is removed between iterations (untimed) so every Put
// writes.
func BenchmarkStorePut(b *testing.B) {
	rec := realRecord(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	path := st.objectPath(rec.Hash)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put(&Record{Hash: rec.Hash, Spec: rec.Spec, Report: rec.Report}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
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
