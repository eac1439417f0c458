package sim

import (
	"fmt"
	"os"

	"repro/internal/account"
	"repro/internal/isa"
)

// acctState is the machine's cycle-accounting and forensics state.  Every
// machine keeps it: each verified run reports a CPI stack and a per-load
// audit, and a stuck machine's dump carries the flight recorder.
type acctState struct {
	stack     account.CPIStack
	flight    *account.FlightRecorder
	forensics *account.Forensics

	// waveUntil extends BucketWave over a violation's repair latency, so
	// the dead cycles between detection and the corrected broadcast are
	// charged to the violation, not to whatever the machine happens to be
	// idle on.
	waveUntil int64
	// After a squash the fetch-starved refill cycles are the squash's
	// fault: refill names the bucket (BucketWave or BucketBPred) charged
	// while the window refills; refillActive clears at the next commit.
	refill       account.Bucket
	refillActive bool

	// prev is the previous cycle's counters; it starts at zero, as every
	// counter does.
	prev acctCounters
}

func newAcctState(frames int) acctState {
	return acctState{
		flight:    account.NewFlightRecorder(account.DefaultFlightDepth),
		forensics: account.NewForensics(frames),
		waveUntil: -1,
	}
}

// acctCounters snapshots the event counters attribution diffs each cycle.
type acctCounters struct {
	committed      int64
	violations     int64
	flushes        int64
	corrections    int64
	vpCorrections  int64
	branchSquashes int64
	reexecs        int64
}

func (mc *Machine) acctCounters() acctCounters {
	return acctCounters{
		committed:      mc.committed,
		violations:     mc.q.Stats.Violations,
		flushes:        mc.stats.Flushes,
		corrections:    mc.stats.DSRECorrections,
		vpCorrections:  mc.stats.VPCorrections,
		branchSquashes: mc.stats.BranchSquashes,
		reexecs:        mc.stats.Reexecs,
	}
}

// FlightDump renders the flight-recorder ring.
func (mc *Machine) FlightDump() string {
	return mc.acct.flight.Dump()
}

// accountCycle charges the just-finished cycle's commit-slot budget to
// exactly one bucket and snapshots the machine into the flight recorder.
// Runs after stepCommit, before the cycle counter advances.
func (mc *Machine) accountCycle() {
	a := &mc.acct
	cur := mc.acctCounters()
	b := mc.attributeCycle(a, cur, a.prev)
	a.prev = cur
	a.stack.Add(b, account.SlotsPerCycle)
	a.flight.Record(account.Snapshot{
		Cycle:      mc.cycle,
		Attributed: b,
		Window:     len(mc.window),
		LSQ:        mc.q.Occupancy(),
		NoC:        mc.net.Pending(),
		Committed:  mc.committed,
		FetchBusy:  mc.fetch.active,
	})
}

// attributeCycle picks the bucket, in the priority order pinned by
// DESIGN.md "Cycle accounting": commit > wave > bpred > fetch (with squash
// shadows) > drain > cache miss > issue > noc.  Every input is read-only:
// attribution must never perturb the simulated numbers.
func (mc *Machine) attributeCycle(a *acctState, cur, prev acctCounters) account.Bucket {
	violated := cur.violations > prev.violations || cur.flushes > prev.flushes ||
		cur.corrections > prev.corrections || cur.vpCorrections > prev.vpCorrections
	if violated {
		if until := mc.cycle + int64(mc.cfg.ViolationLatency); until > a.waveUntil {
			a.waveUntil = until
		}
		if cur.flushes > prev.flushes {
			a.refill, a.refillActive = account.BucketWave, true
		}
	}
	if cur.branchSquashes > prev.branchSquashes {
		a.refill, a.refillActive = account.BucketBPred, true
	}
	if cur.committed > prev.committed {
		a.refillActive = false
		return account.BucketCommit
	}
	if violated || mc.cycle <= a.waveUntil || cur.reexecs > prev.reexecs {
		return account.BucketWave
	}
	if cur.branchSquashes > prev.branchSquashes {
		return account.BucketBPred
	}
	if len(mc.window) == 0 {
		if a.refillActive {
			return a.refill
		}
		return account.BucketFetch
	}
	// Fetch has stopped because the in-flight path ends at the halt target:
	// the remaining cycles are program wind-down, not a stall.
	if !mc.fetch.active {
		y := mc.window[len(mc.window)-1]
		if y.branch.Present && int(y.branch.Value) == isa.HaltTarget {
			return account.BucketDrain
		}
	}
	if mc.hier.OutstandingData(mc.cycle) > 0 {
		return account.BucketCacheMiss
	}
	for i := range mc.tiles {
		if mc.tiles[i].readyCount > 0 || len(mc.tiles[i].busy) > 0 {
			return account.BucketIssue
		}
	}
	return account.BucketNoC
}

// squashEquivCost is what a flush recovery at fromSeq would discard right
// now: every execution already fired in blocks at or younger than fromSeq.
// DSRE forensics records it per violation so the wave-vs-flush trade is
// measurable per static load.  Blocks keep their executions summed, so the
// cost is one add per younger block, not a walk over its instructions.
func (mc *Machine) squashEquivCost(fromSeq int64) int64 {
	var n int64
	for _, b := range mc.window {
		if b.seq < fromSeq {
			continue
		}
		if assertsEnabled {
			mc.assertFired(b)
		}
		n += b.fired
	}
	return n
}

// assertFired checks a block's running execution sum against a walk over
// its instructions (dsre_assert builds only).
func (mc *Machine) assertFired(b *blockInst) {
	var walk int64
	for i := range b.insts {
		walk += b.insts[i].fired
	}
	if walk != b.fired {
		mc.failAssert("block %d: fired sum %d, instructions fired %d", b.seq, b.fired, walk)
	}
}

// failAssert is assertFailf plus the flight recorder: the last recorded
// cycles go to stderr before the panic, so an invariant failure arrives
// with the machine's recent history attached.
func (mc *Machine) failAssert(format string, args ...any) {
	fmt.Fprint(os.Stderr, mc.acct.flight.Dump())
	assertFailf(format, args...)
}
