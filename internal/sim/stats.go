package sim

import (
	"fmt"
	"strings"

	"repro/internal/account"
	"repro/internal/stats"
)

// Stats aggregates everything the evaluation reports.
type Stats struct {
	Cycles          int64
	CommittedBlocks int64
	MappedBlocks    int64
	FetchedBlocks   int64
	SquashedBlocks  int64

	Issued         int64 // instructions issued to ALUs
	Executed       int64 // executions completed (including re-executions)
	Reexecs        int64 // executions beyond the first per instance
	CommittedExecs int64 // instructions that had fired in committed blocks
	SquashedExecs  int64 // executions thrown away by squashes

	Flushes          int64 // violation-triggered pipeline flushes
	DSRECorrections  int64 // violation-triggered selective corrections
	BranchSquashes   int64
	StaleMsgs        int64
	DrainedStores    int64
	FetchStallFrames int64
	FetchStallLSQ    int64
	VPIssued         int64 // value-predicted loads delivered at map time
	VPHits           int64 // predictions confirmed by the actual value
	VPCorrections    int64 // mis-predictions repaired by waves

	// Wave characterisation (DSRE only).
	WaveCount    int64
	WaveReexecs  int64
	WaveSizeHist stats.Hist

	// Cycle accounting + forensics.  Acct obeys the conservation invariant
	// Acct.Total() == Cycles × account.SlotsPerCycle, checked under the
	// dsre_assert tag.
	Acct      account.CPIStack
	Forensics account.Summary

	// Substrate stats, snapshot at end of run.
	Net struct {
		Messages, Delivered, Hops, QueueWait int64
	}
	L1DMissRate float64
	L2MissRate  float64
	LSQ         struct {
		Loads, Stores, Forwards, PartialForwards int64
		Violations, SilentStoreHits              int64
		DeferredPolicy, DeferredMSHR             int64
		PeakOccupancy                            int
	}
	StoreSet struct {
		Merges, Clears, LoadWaits, LoadFrees int64
	}
}

// String renders a compact multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d blocks=%d (mapped %d, squashed %d)\n",
		s.Cycles, s.CommittedBlocks, s.MappedBlocks, s.SquashedBlocks)
	fmt.Fprintf(&b, "exec=%d reexec=%d committedExec=%d squashedExec=%d\n",
		s.Executed, s.Reexecs, s.CommittedExecs, s.SquashedExecs)
	fmt.Fprintf(&b, "violations=%d flushes=%d corrections=%d branchSquashes=%d\n",
		s.LSQ.Violations, s.Flushes, s.DSRECorrections, s.BranchSquashes)
	fmt.Fprintf(&b, "loads=%d stores=%d forwards=%d deferredPolicy=%d\n",
		s.LSQ.Loads, s.LSQ.Stores, s.LSQ.Forwards, s.LSQ.DeferredPolicy)
	fmt.Fprintf(&b, "net: msgs=%d hops=%d queueWait=%d  L1D miss=%.3f L2 miss=%.3f\n",
		s.Net.Messages, s.Net.Hops, s.Net.QueueWait, s.L1DMissRate, s.L2MissRate)
	if s.WaveCount > 0 {
		fmt.Fprintf(&b, "waves=%d meanSize=%.2f\n", s.WaveCount,
			float64(s.WaveReexecs)/float64(s.WaveCount))
	}
	if s.Acct.Total() > 0 {
		fmt.Fprintf(&b, "cpi stack: %s\n", s.Acct.String())
	}
	return b.String()
}

// snapshotStats copies substrate counters into the run's Stats.
func (mc *Machine) snapshotStats() {
	mc.stats.Cycles = mc.cycle
	mc.stats.CommittedBlocks = mc.committed
	ns := mc.net.Stats
	mc.stats.Net.Messages = ns.Messages
	mc.stats.Net.Delivered = ns.Delivered
	mc.stats.Net.Hops = ns.Hops
	mc.stats.Net.QueueWait = ns.QueueWait
	mc.stats.L1DMissRate = mc.hier.L1D.Stats.MissRate()
	mc.stats.L2MissRate = mc.hier.L2.Stats.MissRate()
	qs := mc.q.Stats
	mc.stats.LSQ.Loads = qs.Loads
	mc.stats.LSQ.Stores = qs.Stores
	mc.stats.LSQ.Forwards = qs.Forwards
	mc.stats.LSQ.PartialForwards = qs.PartialForwards
	mc.stats.LSQ.Violations = qs.Violations
	mc.stats.LSQ.SilentStoreHits = qs.SilentStoreHits
	mc.stats.LSQ.DeferredPolicy = qs.DeferredPolicy
	mc.stats.LSQ.DeferredMSHR = qs.DeferredMSHR
	mc.stats.LSQ.PeakOccupancy = qs.PeakOccupancy
	if mc.ss != nil {
		mc.stats.StoreSet.Merges = mc.ss.Merges
		mc.stats.StoreSet.Clears = mc.ss.Clears
		mc.stats.StoreSet.LoadWaits = mc.ss.LoadWaits
		mc.stats.StoreSet.LoadFrees = mc.ss.LoadFrees
	}
	f := mc.acct.forensics
	mc.stats.WaveCount = f.Waves()
	mc.stats.WaveReexecs = f.Reexecs()
	mc.stats.WaveSizeHist = f.SizeHist()
	mc.stats.Acct = mc.acct.stack
	mc.stats.Forensics = f.Summarize(acctTopLoads)
	if assertsEnabled {
		if total, want := mc.stats.Acct.Total(), mc.cycle*account.SlotsPerCycle; total != want {
			mc.failAssert("cycle accounting leak: buckets sum to %d, want %d (cycles %d × %d slots)",
				total, want, mc.cycle, account.SlotsPerCycle)
		}
	}
}

// acctTopLoads caps the per-PC load profiles carried in Stats (and thus in
// every dsre-report/v1); the full audit totals are unaffected by the cap.
const acctTopLoads = 16
