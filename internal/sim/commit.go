package sim

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// reclaimReadyBits strips a dying (squashed or retiring) block's queued
// instructions out of its tiles' ready masks at once, keeping the mask
// invariant (set bits name only live blocks) that lets the bitmap path
// skip liveness checks.  A reclaimed entry costs no issue slot.
func (mc *Machine) reclaimReadyBits(b *blockInst) {
	slot := int(b.seq) & mc.tileRingMask
	for q := b.queued; !q.Empty(); {
		i := q.Min()
		q.Clear(i)
		mc.tiles[mc.instTile(b.blockID, i)].unready(slot, i)
	}
	b.queued.Reset()
}

// squashFrom removes every in-flight block with sequence >= fromSeq and
// arranges for fetch to resume at resumeID.  Frame generations advance so
// that every message still in flight for a squashed block is dropped on
// arrival.
func (mc *Machine) squashFrom(fromSeq int64, resumeID int) {
	cut := len(mc.window)
	for i, b := range mc.window {
		if b.seq >= fromSeq {
			cut = i
			break
		}
	}
	for i, b := range mc.window[cut:] {
		if mc.tracer != nil {
			mc.tracer.Record(mc.cycle, trace.KindBlockSquash, b.seq, 0, 0)
			mc.tracer.RecordSpan(trace.SpanBlock, b.seq, b.blockID, 1, b.mapCycle, mc.cycle)
		}
		mc.frameBusy[b.frame] = false
		mc.frameGens[b.frame]++
		mc.stats.SquashedBlocks++
		if assertsEnabled {
			mc.assertFired(b)
		}
		mc.stats.SquashedExecs += b.fired
		mc.reclaimReadyBits(b)
		// Recycle the block and nil the window tail so retired blocks are
		// unreachable.  A handler that squashed its own block may still hold
		// the pointer, but the pool only hands it out at the next map, after
		// the handler has returned (and (frame, gen) liveness rejects any
		// message still naming it).
		mc.releaseBlock(b)
		mc.window[cut+i] = nil
	}
	mc.window = mc.window[:cut]
	mc.q.SquashFrom(fromSeq)
	if mc.fetch.active && mc.fetch.seq >= fromSeq {
		mc.fetch.active = false
	}
	mc.nextSeq = fromSeq
	mc.resumeID = resumeID
}

// stepCommit retires the oldest block once its outputs are final: register
// writes drain to the architectural file, stores drain to memory, the next-
// block predictor trains, and the frame frees.  At most one block commits
// per cycle; the return reports whether one did.
func (mc *Machine) stepCommit() bool {
	if len(mc.window) == 0 {
		return false
	}
	b := mc.window[0]
	if assertsEnabled && b.seq >= mc.nextSeq {
		mc.failAssert("committing block seq %d that fetch has not issued yet (nextSeq %d, cycle %d)",
			b.seq, mc.nextSeq, mc.cycle)
	}
	if !b.outputsCommitted() {
		return false
	}
	target := int(b.branch.Value)

	// The committed branch already validated the successor path
	// (checkSuccessor), except for the halt case where nothing should
	// follow: clear any mispredicted younger blocks now.
	if target == isa.HaltTarget && (len(mc.window) > 1 || mc.fetch.active) {
		mc.squashFrom(b.seq+1, isa.HaltTarget)
	}

	for i := range b.writes {
		mc.arch[b.bdef.Writes[i].Reg] = b.writes[i].slot.Value
	}
	mc.stats.DrainedStores += int64(mc.q.Drain(b.seq))
	mc.trainPredictor(b.blockID, target)

	if mc.tracer != nil {
		mc.tracer.Record(mc.cycle, trace.KindBlockCommit, b.seq, 0, 0)
		mc.tracer.RecordSpan(trace.SpanBlock, b.seq, b.blockID, 0, b.mapCycle, mc.cycle)
	}
	mc.frameBusy[b.frame] = false
	mc.frameGens[b.frame]++
	// A block can retire with instructions still queued (e.g. a predicated
	// slot whose enable lapsed); reclaim their ready bits like a squash.
	mc.reclaimReadyBits(b)
	// Compact in place: reslicing away the head would leak the backing
	// array's capacity and make the steady-state append reallocate.
	m := copy(mc.window, mc.window[1:])
	mc.window[m] = nil
	mc.window = mc.window[:m]
	mc.committed++
	mc.lastCommitCycle = mc.cycle
	for i := range b.insts {
		if b.insts[i].fired > 0 {
			mc.stats.CommittedExecs++
		}
	}
	mc.releaseBlock(b)

	if target == isa.HaltTarget {
		mc.done = true
		return true
	}
	if len(mc.window) == 0 && !mc.fetch.active {
		mc.resumeID = target
	}
	return true
}
