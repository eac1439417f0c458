package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the text exposition byte-for-byte: HELP
// and TYPE lines, name-sorted ordering, cumulative histogram buckets with
// the trailing +Inf, and the _sum/_count pair.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	jobs := reg.Counter("dsre_test_jobs_total", "Jobs completed, any status.")
	queued := reg.Gauge("dsre_test_jobs_queued", "Jobs waiting for a worker.")
	lat := reg.Histogram("dsre_test_job_seconds", "Wall time of computed jobs.", []float64{0.01, 0.1, 1})
	// An empty-help metric must render with only a TYPE line.
	bare := reg.Counter("dsre_test_bare_total", "")

	jobs.Add(42)
	queued.Set(7)
	queued.Add(-3)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		lat.Observe(v)
	}
	bare.Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}

	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRegistryConcurrent hammers every metric type from many goroutines
// while snapshotting and scraping concurrently; run under -race this pins
// the lock-free update paths.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "c")
	g := reg.Gauge("g", "g")
	h := reg.Histogram("h_seconds", "h", DurationBounds)

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(seed*iters+i) / 1000)
				if i%100 == 0 {
					_ = reg.Snapshot()
					_ = reg.WritePrometheus(&bytes.Buffer{})
				}
			}
		}(w)
	}
	wg.Wait()

	s := reg.Snapshot()
	if got := s.Counter("c_total"); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := s.Gauge("g"); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != workers*iters {
		t.Errorf("histogram count = %+v, want %d observations", s.Histograms, workers*iters)
	}
}

func TestRegistryRejectsBadRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ok_total", "")
	for name, fn := range map[string]func(){
		"duplicate":     func() { reg.Counter("ok_total", "") },
		"cross-kind":    func() { reg.Gauge("ok_total", "") },
		"leading-digit": func() { reg.Counter("0bad", "") },
		"bad-char":      func() { reg.Counter("bad-name", "") },
		"empty":         func() { reg.Counter("", "") },
		"no-bounds":     func() { reg.Histogram("h", "", nil) },
		"unsorted":      func() { reg.Histogram("h2", "", []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	c := NewRegistry().Counter("c_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", "", []float64{1, 2})
	h.Observe(0.5) // bucket le=1
	h.Observe(1)   // boundary lands in le=1 (le is inclusive)
	h.Observe(1.5) // bucket le=2
	h.Observe(9)   // +Inf
	want := []int64{2, 1, 1}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
}
