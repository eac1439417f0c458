package sim

import (
	"math"

	"repro/internal/account"
)

// Sample is one telemetry observation window: the machine's dynamic state
// at a cycle boundary plus windowed rate counters since the previous
// sample.  The machine keeps every window of the run (Result.Samples);
// internal/telemetry renders the series as CSV, JSON or a Chrome trace.
type Sample struct {
	// Cycle is the cycle at the end of the window; Window is the number of
	// cycles the windowed counters cover.
	Cycle  int64 `json:"cycle"`
	Window int64 `json:"window"`

	// IPC is committed executions per cycle over the window.
	IPC float64 `json:"ipc"`
	// CommittedBlocks counts blocks retired in the window.
	CommittedBlocks int64 `json:"committed_blocks"`

	// Instantaneous occupancies at sample time.
	InFlightBlocks int `json:"in_flight_blocks"` // mapped, uncommitted blocks
	WindowInsts    int `json:"window_insts"`     // instruction slots resident (ROB equivalent)
	LSQOccupancy   int `json:"lsq_occupancy"`    // resident load/store entries
	NoCPending     int `json:"noc_pending"`      // operand-mesh messages in flight

	// Windowed speculation counters.
	Waves   int64 `json:"waves"`
	Reexecs int64 `json:"reexecs"`
	Flushes int64 `json:"flushes"`

	// Windowed cache miss rates (0 when the window had no accesses).
	L1DMissRate float64 `json:"l1d_miss_rate"`
	L2MissRate  float64 `json:"l2_miss_rate"`

	// CPI is the windowed cycle-accounting delta; windowed buckets sum to
	// the window's cycle count × slots.
	CPI account.CPIStack `json:"cpi"`
}

// sampleOrigin snapshots the cumulative counters at a window start so the
// next sample can report deltas.
type sampleOrigin struct {
	cycle              int64
	committedExecs     int64
	committedBlocks    int64
	waves              int64
	reexecs            int64
	flushes            int64
	l1dHits, l1dMisses int64
	l2Hits, l2Misses   int64
	acct               account.CPIStack
}

func (mc *Machine) sampleOriginNow() sampleOrigin {
	return sampleOrigin{
		cycle:           mc.cycle,
		committedExecs:  mc.stats.CommittedExecs,
		committedBlocks: mc.committed,
		waves:           mc.acct.forensics.Waves(),
		reexecs:         mc.stats.Reexecs,
		flushes:         mc.stats.Flushes,
		l1dHits:         mc.hier.L1D.Stats.Hits,
		l1dMisses:       mc.hier.L1D.Stats.Misses,
		l2Hits:          mc.hier.L2.Stats.Hits,
		l2Misses:        mc.hier.L2.Stats.Misses,
		acct:            mc.acct.stack,
	}
}

// SetSampleEvery records a telemetry window every `every` cycles from now
// on; a non-positive interval turns sampling off.  Either way the run loop
// pays one comparison per cycle.
func (mc *Machine) SetSampleEvery(every int64) {
	if every < 1 {
		mc.sampleEvery, mc.sampleAt = 0, math.MaxInt64
		return
	}
	mc.sampleEvery = every
	mc.sampleAt = mc.cycle + every
	mc.sampleBase = mc.sampleOriginNow()
}

// rate returns misses/(hits+misses), or 0 for an empty window.
func rate(misses, hits int64) float64 {
	if misses+hits == 0 {
		return 0
	}
	return float64(misses) / float64(misses+hits)
}

// takeSample closes the current window, appends it to the series, and
// opens the next one.  Called from step() at window boundaries and from Run() for the
// final partial window.
func (mc *Machine) takeSample() {
	base := mc.sampleBase
	now := mc.sampleOriginNow()
	win := now.cycle - base.cycle
	mc.sampleAt = mc.cycle + mc.sampleEvery
	mc.sampleBase = now
	if win <= 0 {
		return
	}
	insts := 0
	for _, b := range mc.window {
		insts += len(b.insts)
	}
	s := Sample{
		Cycle:           mc.cycle,
		Window:          win,
		IPC:             float64(now.committedExecs-base.committedExecs) / float64(win),
		CommittedBlocks: now.committedBlocks - base.committedBlocks,
		InFlightBlocks:  len(mc.window),
		WindowInsts:     insts,
		LSQOccupancy:    mc.q.Occupancy(),
		NoCPending:      mc.net.Pending(),
		Waves:           now.waves - base.waves,
		Reexecs:         now.reexecs - base.reexecs,
		Flushes:         now.flushes - base.flushes,
		L1DMissRate:     rate(now.l1dMisses-base.l1dMisses, now.l1dHits-base.l1dHits),
		L2MissRate:      rate(now.l2Misses-base.l2Misses, now.l2Hits-base.l2Hits),
		CPI:             now.acct.Sub(base.acct),
	}
	mc.samples = append(mc.samples, s)
}
