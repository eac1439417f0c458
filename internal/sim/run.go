package sim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Result is the outcome of a simulated run.
type Result struct {
	Regs   [isa.NumRegs]int64
	Mem    *mem.Memory
	Blocks int64
	Stats  Stats
	// Samples is the whole telemetry series, in cycle order, when
	// SetSampleEvery turned sampling on.
	Samples []Sample
}

// ctxCheckInterval is how often RunContext polls its context, in cycles.
// A power of two so the hot loop pays one AND plus a rarely-taken branch;
// at simulator speeds a few thousand cycles resolve in well under a
// millisecond, so cancellation still lands at what a caller perceives as
// "a cycle boundary, immediately".
const ctxCheckInterval = 4096

// Run simulates to completion (the committed halt branch) and returns the
// final architectural state and statistics.
func (mc *Machine) Run() (*Result, error) {
	return mc.RunContext(context.Background())
}

// RunContext is Run under a context: a sweep timeout or Ctrl-C cancels the
// simulation at a cycle boundary, returning the context's error.  The
// context is polled every ctxCheckInterval cycles (never in the per-cycle
// hot path), and not at all for contexts that cannot be cancelled.
func (mc *Machine) RunContext(ctx context.Context) (*Result, error) {
	maxCycles := mc.cfg.maxCycles()
	deadlock := mc.cfg.deadlockCycles()
	cancellable := ctx != nil && ctx.Done() != nil
	for !mc.done {
		if mc.err != nil {
			return nil, fmt.Errorf("cycle %d: %w", mc.cycle, mc.err)
		}
		if mc.cycle >= maxCycles {
			return nil, fmt.Errorf("sim: cycle budget %d exhausted (%d blocks committed)", maxCycles, mc.committed)
		}
		if mc.cycle-mc.lastCommitCycle > deadlock {
			return nil, fmt.Errorf("sim: no commit for %d cycles at cycle %d — protocol deadlock\n%s",
				deadlock, mc.cycle, mc.debugDump())
		}
		if cancellable && mc.cycle&(ctxCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at cycle %d: %w", mc.cycle, err)
			}
		}
		if mc.step() || mc.dense {
			continue
		}
		// The cycle just stepped was a provable no-op, and nothing outside
		// the event structures can change until the next scheduled event:
		// jump straight to it instead of replaying empty cycles.
		mc.fastForward(maxCycles, deadlock)
	}
	// Flush the final (partial) telemetry window so short runs still
	// produce at least one sample.
	if mc.sampleEvery > 0 && mc.cycle > mc.sampleBase.cycle {
		mc.takeSample()
	}
	mc.snapshotStats()
	return &Result{Regs: mc.arch, Mem: mc.mem, Blocks: mc.committed, Stats: mc.stats, Samples: mc.samples}, nil
}

// step advances the machine one cycle and reports whether anything moved.
// A false return is a proof obligation, not a hint: it asserts the cycle
// was a no-op AND that replaying the machine from here produces only no-ops
// until the next scheduled event (see fastForward), because every state
// change is initiated by an injection, a network delivery, an LSQ
// re-evaluation, a tile completion/issue, fetch, or commit — all of which
// report below.
func (mc *Machine) step() bool {
	progress := false

	// Structure-latency completions (cache replies, recovery broadcasts)
	// inject into the network first.  FIFO within a cycle — the heap's
	// insertion-sequence tiebreak — preserves the retired map's append
	// order.
	for mc.injq.Len() > 0 && mc.injq.MinAt() <= mc.cycle {
		_, inj := mc.injq.Pop()
		mc.send(inj.src, inj.dst, inj.msg)
		progress = true
	}

	// Network: arrivals dispatch to the handlers.
	if mc.net.Tick(mc.cycle) {
		progress = true
	}

	// LSQ: deferred loads whose policy wait resolved, and loads whose
	// values became certifiable (the memory leg of the commit wave).  A
	// re-evaluation scan counts as progress even when it returns nothing:
	// it can increment deferral statistics (MSHR-parked loads retry every
	// cycle) and clears queue dirtiness.
	if mc.q.HasReadyWork() {
		progress = true
	}
	mc.readyBuf = mc.q.TakeReady(mc.cycle, mc.readyBuf[:0])
	for _, rl := range mc.readyBuf {
		b := mc.blockAt(rl.Load.Seq)
		if b == nil {
			continue
		}
		idx := mc.memIdx[b.blockID][rl.Load.LSID]
		mc.emitLoadResult(b, idx, rl.Addr, rl.Res)
	}
	mc.certBuf = mc.q.TakeCertifiable(mc.certBuf[:0])
	if len(mc.certBuf) > 0 {
		progress = true
	}
	for _, c := range mc.certBuf {
		b := mc.blockAt(c.Load.Seq)
		if b == nil {
			continue
		}
		idx := mc.memIdx[b.blockID][c.Load.LSID]
		mc.broadcastLoadReply(b, idx, c.Addr, c.Value, 0, mc.cfg.ForwardLatency, true)
	}

	if mc.stepTiles() {
		progress = true
	}
	mc.lastFetch = mc.stepFetch()
	if mc.lastFetch == fetchProgress {
		progress = true
	}
	if mc.stepCommit() {
		progress = true
	}
	// Sample before accounting this cycle's slot so a window ending at
	// cycle c covers exactly the accounted cycles (base, c]: windowed CPI
	// buckets then sum to Window × SlotsPerCycle with no boundary skew.
	if mc.cycle >= mc.sampleAt {
		mc.takeSample()
	}
	mc.accountCycle()
	mc.cycle++
	return progress
}

// fastForward advances mc.cycle to the next cycle at which anything can
// happen, after step returned false.  The jump target is the earliest of
// every pending event source, clamped so the run loop still observes the
// max-cycle and deadlock boundaries and the sampler still closes windows at
// exact multiples:
//
//   - the next scheduled injection (injq);
//   - the next network arrival or transmission (NextEvent);
//   - the next ALU completion (tileNext; ready queues are empty after a
//     null step, else it refuses to jump);
//   - fetch completion (fetch.readyAt) when a fetch is in flight;
//   - the first cycle the deadlock detector would fire, and maxCycles;
//   - the next sampler window boundary.
//
// Skipped cycles are not free of side effects: a stalled fetch engine
// increments its stall counter every cycle, the sampler may close a window,
// and cycle accounting attributes every cycle's slots.  So the skipped
// cycles are replayed one by one through tickIdleTail; what the jump saves
// is the structures' per-cycle work.
func (mc *Machine) fastForward(maxCycles, deadlock int64) {
	next := mc.lastCommitCycle + deadlock + 1
	if maxCycles < next {
		next = maxCycles
	}
	if mc.injq.Len() > 0 && mc.injq.MinAt() < next {
		next = mc.injq.MinAt()
	}
	if ne := mc.net.NextEvent(mc.cycle); ne < next {
		next = ne
	}
	if tn := mc.tileNext(); tn < next {
		next = tn
	}
	if mc.fetch.active && mc.fetch.readyAt < next {
		next = mc.fetch.readyAt
	}
	if mc.sampleAt < next {
		next = mc.sampleAt
	}
	if next <= mc.cycle {
		return
	}
	mc.ffSkipped += next - mc.cycle
	for mc.cycle < next {
		mc.tickIdleTail()
	}
}

// tickIdleTail replays the per-cycle tail of a skipped idle cycle: the
// fetch engine's stall counter (the only statistic a null cycle moves),
// then the sampler boundary check, then cycle accounting — the same order
// step uses, so windows and CPI stacks close over identical state.
func (mc *Machine) tickIdleTail() {
	switch mc.lastFetch {
	case fetchStallFrames:
		mc.stats.FetchStallFrames++
	case fetchStallLSQ:
		mc.stats.FetchStallLSQ++
	default:
		// fetchIdle and fetchWaiting move no counters; fetchProgress cannot
		// follow a null step.
	}
	if mc.cycle >= mc.sampleAt {
		mc.takeSample()
	}
	mc.accountCycle()
	mc.cycle++
}

// debugDump renders the stuck machine for deadlock diagnostics.  The
// sampler's partial window is flushed first so the telemetry line below
// reflects the moment of the dump, and the flight recorder appends the
// last recorded cycles.
func (mc *Machine) debugDump() string {
	if mc.sampleEvery > 0 && mc.cycle > mc.sampleBase.cycle {
		mc.takeSample()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "window (%d blocks):\n", len(mc.window))
	for _, blk := range mc.window {
		fmt.Fprintf(&b, "  seq=%d block=%d %q branch{p=%v c=%v v=%d} writes=%d/%d stores=%d/%d\n",
			blk.seq, blk.blockID, blk.bdef.Name,
			blk.branch.Present, blk.branch.Committed, blk.branch.Value,
			blk.writesCommitted, len(blk.writes), blk.storesCommitted, blk.numStores)
		for i := range blk.insts {
			st := &blk.insts[i]
			in := &blk.bdef.Insts[i]
			if st.committedSent {
				continue
			}
			var slots []string
			for s := isa.SlotA; s < isa.NumSlots; s++ {
				if in.NeedsSlot(s) {
					sl := blk.slot(i, s)
					slots = append(slots, fmt.Sprintf("%s{p=%v c=%v v=%d t=%d}", s, sl.Present, sl.Committed, sl.Value, sl.Tag))
				}
			}
			fmt.Fprintf(&b, "    i%-3d %-24s fired=%d need=%v q=%v ev=%v %s\n",
				i, in.String(), st.fired, blk.need.Test(i), blk.queued.Test(i), st.execValid, strings.Join(slots, " "))
		}
	}
	fmt.Fprintf(&b, "fetch active=%v seq=%d id=%d  nextSeq=%d resume=%d net pending=%d\n",
		mc.fetch.active, mc.fetch.seq, mc.fetch.blockID, mc.nextSeq, mc.resumeID, mc.net.Pending())
	if mc.ffSkipped > 0 {
		// A deadlocked machine reaches the detector almost entirely through
		// fast-forwarded idle cycles; note them so "cycle N" in the error is
		// not mistaken for N stepped cycles of activity.
		fmt.Fprintf(&b, "idle-skipped=%d cycles fast-forwarded (injq=%d net-next=%d tile-next=%d)\n",
			mc.ffSkipped, mc.injq.Len(), mc.net.NextEvent(mc.cycle), mc.tileNext())
	}
	if n := len(mc.samples); n > 0 {
		s := mc.samples[n-1]
		fmt.Fprintf(&b, "telemetry last window: cycle=%d win=%d ipc=%.3f committed=%d inflight=%d lsq=%d noc=%d waves=%d reexecs=%d flushes=%d l1d=%.3f l2=%.3f\n",
			s.Cycle, s.Window, s.IPC, s.CommittedBlocks, s.InFlightBlocks,
			s.LSQOccupancy, s.NoCPending, s.Waves, s.Reexecs, s.Flushes,
			s.L1DMissRate, s.L2MissRate)
	}
	fmt.Fprintf(&b, "cycle accounting: %s\n", mc.acct.stack.String())
	b.WriteString(mc.acct.flight.Dump())
	return b.String()
}

// Cycle returns the current cycle (for tests and tools).
func (mc *Machine) Cycle() int64 { return mc.cycle }
