package account

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// moduloRecorder is the flight recorder as it was before the wrapping
// index: the slot is the total record count modulo the depth.
type moduloRecorder struct {
	buf []Snapshot
	n   int
}

func (fr *moduloRecorder) Record(s Snapshot) {
	fr.buf[fr.n%len(fr.buf)] = s
	fr.n++
}

func (fr *moduloRecorder) Len() int {
	if fr.n < len(fr.buf) {
		return fr.n
	}
	return len(fr.buf)
}

func (fr *moduloRecorder) Snapshots() []Snapshot {
	held := fr.Len()
	out := make([]Snapshot, 0, held)
	for i := fr.n - held; i < fr.n; i++ {
		out = append(out, fr.buf[i%len(fr.buf)])
	}
	return out
}

func (fr *moduloRecorder) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder (last %d cycles):\n", fr.Len())
	for _, s := range fr.Snapshots() {
		fetch := "idle"
		if s.FetchBusy {
			fetch = "busy"
		}
		fmt.Fprintf(&sb, "  cycle=%-8d bucket=%-9s window=%-3d lsq=%-4d noc=%-4d committed=%-6d fetch=%s\n",
			s.Cycle, s.Attributed, s.Window, s.LSQ, s.NoC, s.Committed, fetch)
	}
	return sb.String()
}

// TestFlightRecorderMatchesModulo pins Len, Snapshots and Dump against the
// modulo recorder at depths 1, 3 and 128 after every record count from 0
// to three times the depth.
func TestFlightRecorderMatchesModulo(t *testing.T) {
	for _, depth := range []int{1, 3, DefaultFlightDepth} {
		fr := NewFlightRecorder(depth)
		ref := &moduloRecorder{buf: make([]Snapshot, depth)}
		for n := 0; n <= 3*depth; n++ {
			if fr.Len() != ref.Len() {
				t.Fatalf("depth %d after %d records: Len %d, modulo %d", depth, n, fr.Len(), ref.Len())
			}
			if got, want := fr.Snapshots(), ref.Snapshots(); !reflect.DeepEqual(got, want) {
				t.Fatalf("depth %d after %d records: Snapshots %v, modulo %v", depth, n, got, want)
			}
			if got, want := fr.Dump(), ref.Dump(); got != want {
				t.Fatalf("depth %d after %d records: Dump\n%s\nmodulo\n%s", depth, n, got, want)
			}
			s := Snapshot{
				Cycle: int64(n), Attributed: Bucket(n % int(NumBuckets)), Window: n % 7,
				LSQ: n % 11, NoC: n % 5, Committed: int64(n / 2), FetchBusy: n%2 == 1,
			}
			fr.Record(s)
			ref.Record(s)
		}
	}
}
