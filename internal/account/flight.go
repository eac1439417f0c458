package account

import (
	"fmt"
	"strings"
)

// DefaultFlightDepth is the ring size used by the machine's flight
// recorder: deep enough to cover a deadlock window's tail, small enough to
// record every cycle for free.
const DefaultFlightDepth = 128

// Snapshot is one per-cycle machine snapshot kept in the flight recorder.
type Snapshot struct {
	Cycle      int64
	Attributed Bucket
	Window     int   // blocks in flight
	LSQ        int   // load/store-queue occupancy
	NoC        int   // operand-network messages pending
	Committed  int64 // blocks committed so far
	FetchBusy  bool  // a block fetch is outstanding
}

// FlightRecorder is a fixed-size ring of recent per-cycle snapshots,
// dumped on deadlock and on dsre_assert failures so the last moments
// before a wedge are visible without re-running under a tracer.
type FlightRecorder struct {
	buf  []Snapshot
	next int  // slot the next Record overwrites
	full bool // every slot holds a snapshot: the ring has wrapped
}

func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{buf: make([]Snapshot, depth)}
}

// Record overwrites the oldest slot with s.  It runs every simulated
// cycle, so it advances a wrapping index rather than dividing.
func (fr *FlightRecorder) Record(s Snapshot) {
	fr.buf[fr.next] = s
	if fr.next++; fr.next == len(fr.buf) {
		fr.next, fr.full = 0, true
	}
}

// Len is the number of snapshots currently held (<= the ring depth).
func (fr *FlightRecorder) Len() int {
	if fr.full {
		return len(fr.buf)
	}
	return fr.next
}

// Snapshots returns the held snapshots oldest-first.
func (fr *FlightRecorder) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, fr.Len())
	if fr.full {
		out = append(out, fr.buf[fr.next:]...)
	}
	return append(out, fr.buf[:fr.next]...)
}

// Dump renders the ring oldest-first, one line per cycle.
func (fr *FlightRecorder) Dump() string {
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
