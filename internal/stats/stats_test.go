package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 7, 100} {
		h.Add(v)
	}
	if h.N != 6 {
		t.Errorf("N = %d", h.N)
	}
	if h.Max != 100 {
		t.Errorf("Max = %d", h.Max)
	}
	if got := h.Mean(); math.Abs(got-113.0/6) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if h.Percentile(100) != 100 {
		t.Errorf("p100 = %d", h.Percentile(100))
	}
	if p50 := h.Percentile(50); p50 > 3 {
		t.Errorf("p50 = %d", p50)
	}
	var empty Hist
	if empty.Mean() != 0 || empty.Percentile(50) != 0 {
		t.Error("empty hist should report zeros")
	}
}

// TestHistPercentileBounds property: percentiles never exceed the maximum
// observation and are monotone in p.
func TestHistPercentileBounds(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Hist
		for _, v := range vals {
			h.Add(int64(v))
		}
		if h.N == 0 {
			return true
		}
		last := int64(0)
		for _, p := range []float64{10, 50, 90, 99, 100} {
			q := h.Percentile(p)
			if q > h.Max || q < last {
				return false
			}
			last = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.Max != 0 || h.Sum != 0 {
		t.Errorf("negative not clamped: %+v", h)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Row("alpha", 1)
	tb.Row("b", 2.5)
	s := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "2.500", "----"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d", len(lines))
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("GeoMean(1,1,1) = %v", got)
	}
	// Zeros and negatives are skipped, not poisonous.
	if got := GeoMean([]float64{0, -3, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean with zeros = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3)")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio by zero must be 0")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}

func TestHistString(t *testing.T) {
	var h Hist
	h.Add(5)
	if s := h.String(); !strings.Contains(s, "n=1") {
		t.Errorf("String = %q", s)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	a.Add(0)
	a.Add(3)
	b.Add(100)
	b.Add(1 << 40) // lands in the overflow (last) bucket

	var m Hist
	m.Merge(&a)
	m.Merge(&b)
	if m.N != 4 || m.Sum != a.Sum+b.Sum || m.Max != 1<<40 {
		t.Fatalf("merged = n=%d sum=%d max=%d", m.N, m.Sum, m.Max)
	}
	for i := range m.Buckets {
		if m.Buckets[i] != a.Buckets[i]+b.Buckets[i] {
			t.Errorf("bucket %d: %d != %d+%d", i, m.Buckets[i], a.Buckets[i], b.Buckets[i])
		}
	}
	if m.Buckets[len(m.Buckets)-1] != 1 {
		t.Error("overflow bucket not preserved by Merge")
	}

	// Merging empties and nil is a no-op.
	before := m
	m.Merge(&Hist{})
	m.Merge(nil)
	if m != before {
		t.Error("empty/nil merge changed the histogram")
	}
	var empty Hist
	empty.Merge(&Hist{})
	if empty.N != 0 {
		t.Error("empty+empty merge not empty")
	}
}

func TestHistStringBars(t *testing.T) {
	var h Hist
	for i := 0; i < 8; i++ {
		h.Add(4)
	}
	h.Add(0)
	s := h.String()
	if !strings.Contains(s, "n=9") || !strings.Contains(s, "p50=") {
		t.Errorf("summary line missing: %q", s)
	}
	lines := strings.Split(s, "\n")
	if len(lines) != 3 {
		t.Fatalf("want summary + 2 bucket rows, got %d lines:\n%s", len(lines), s)
	}
	// The fuller bucket must render the longer bar.
	bar := func(line string) int { return strings.Count(line, "#") }
	if bar(lines[1]) >= bar(lines[2]) {
		t.Errorf("bars not proportional:\n%s", s)
	}
	var empty Hist
	if es := empty.String(); strings.Contains(es, "#") || !strings.Contains(es, "n=0") {
		t.Errorf("empty hist rendering: %q", es)
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 5, 5, 300, 1 << 50} {
		h.Add(v)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	// Derived percentiles must appear on the wire.
	for _, key := range []string{`"p50"`, `"p90"`, `"p99"`, `"mean"`, `"buckets"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("wire form missing %s: %s", key, data)
		}
	}
	var back Hist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip: %+v != %+v", back, h)
	}

	// Empty histogram round-trips too.
	var empty, emptyBack Hist
	data, err = json.Marshal(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if emptyBack != empty {
		t.Errorf("empty round trip: %+v", emptyBack)
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("demo", "kernel", "ipc")
	tb.Row("vecsum", 1.25)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Title != "demo" || len(out.Header) != 2 || len(out.Rows) != 1 || out.Rows[0][1] != "1.250" {
		t.Errorf("table JSON = %s", data)
	}
	if data, err = json.Marshal(NewTable("empty", "a")); err != nil || !strings.Contains(string(data), `"rows":[]`) {
		t.Errorf("empty table rows must be [], got %s (err %v)", data, err)
	}
}
