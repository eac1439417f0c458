// Package stats provides the counters, histograms and table rendering shared
// by the simulator, the command-line tools and the benchmark harness.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Hist is a power-of-two-bucketed histogram of non-negative values.
// Bucket i counts values in [2^i, 2^(i+1)); bucket 0 counts 0 and 1.
type Hist struct {
	Buckets [32]int64
	N       int64
	Sum     int64
	Max     int64
}

// Add records one observation.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := 0
	for x := v; x > 1 && b < len(h.Buckets)-1; x >>= 1 {
		b++
	}
	h.Buckets[b]++
}

// Mean returns the average observation, or 0 with no data.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Percentile returns an upper bound for the p-th percentile (p in [0,100]),
// using bucket upper edges.
func (h *Hist) Percentile(p float64) int64 {
	if h.N == 0 {
		return 0
	}
	target := int64(math.Ceil(float64(h.N) * p / 100))
	if target <= 0 {
		target = 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			edge := int64(1)
			if i > 0 {
				edge = (1 << uint(i+1)) - 1
			}
			if edge > h.Max {
				edge = h.Max
			}
			return edge
		}
	}
	return h.Max
}

// Merge accumulates another histogram into h (bucket-wise addition).  The
// other histogram is unchanged; merging an empty or nil histogram is a no-op.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.N == 0 {
		return
	}
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
	h.N += other.N
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << uint(i), (1 << uint(i+1)) - 1
}

// String renders a summary line followed by one bar per non-empty bucket.
func (h *Hist) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f max=%d p50=%d p90=%d p99=%d",
		h.N, h.Mean(), h.Max, h.Percentile(50), h.Percentile(90), h.Percentile(99))
	peak := int64(0)
	for _, c := range h.Buckets {
		if c > peak {
			peak = c
		}
	}
	const barWidth = 40
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		bar := 1 + int((c-1)*int64(barWidth-1)/peak)
		fmt.Fprintf(&sb, "\n  [%8d..%-8d] %10d %s", lo, hi, c, strings.Repeat("#", bar))
	}
	return sb.String()
}

// HistWire is the wire form of Hist: raw moments plus derived percentiles
// (emitted for consumers, ignored on decode) and the non-empty buckets by
// their lower edge.
type HistWire struct {
	N       int64        `json:"n"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty bucket of a HistWire.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Count int64 `json:"count"`
}

// MarshalJSON emits the histogram with derived percentiles and sparse
// buckets, keyed by each bucket's lower edge.
func (h *Hist) MarshalJSON() ([]byte, error) {
	out := HistWire{
		N: h.N, Sum: h.Sum, Max: h.Max, Mean: h.Mean(),
		P50: h.Percentile(50), P90: h.Percentile(90), P99: h.Percentile(99),
	}
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo, _ := bucketBounds(i)
		out.Buckets = append(out.Buckets, HistBucket{Lo: lo, Count: c})
	}
	return json.Marshal(out)
}

// SetWire restores the raw histogram state from its wire form; the derived
// fields are ignored and recomputed on demand.
func (h *Hist) SetWire(w *HistWire) {
	*h = Hist{N: w.N, Sum: w.Sum, Max: w.Max}
	for _, b := range w.Buckets {
		i := 0
		if b.Lo > 1 {
			i = bits.Len64(uint64(b.Lo)) - 1
		}
		if i >= len(h.Buckets) {
			i = len(h.Buckets) - 1
		}
		h.Buckets[i] += b.Count
	}
}

// UnmarshalJSON restores the raw histogram state through SetWire.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w HistWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.SetWire(&w)
	return nil
}

// Table accumulates rows and renders them with aligned columns, in the
// style of the tables in an ASPLOS evaluation section.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends a row; cells are rendered with %v, and float64 cells with
// three significant decimals.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

// MarshalJSON emits the table as {title, header, rows} so benchmark
// artifacts carry the same data machine-readably as the rendered text.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.header, rows})
}

// UnmarshalJSON restores a table written by MarshalJSON, so benchmark
// artifacts can be reloaded and compared against a baseline run.
func (t *Table) UnmarshalJSON(data []byte) error {
	var v struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	t.Title, t.header, t.rows = v.Title, v.Header, v.Rows
	return nil
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the rendered cell strings, one slice per row.
func (t *Table) Rows() [][]string { return t.rows }

// GeoMean returns the geometric mean of positive values; zero or negative
// inputs are skipped (matching how speedup figures treat missing bars).
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// SortedKeys returns the keys of a string-keyed map in sorted order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
