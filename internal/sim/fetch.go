package sim

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// codeBase is the synthetic address where block code lives for I-cache
// timing purposes (each block occupies 512 bytes: 128 4-byte instructions).
const codeBase = 0x4000_0000

// predictNext returns the predicted successor of the block at seq.
func (mc *Machine) predictNext(seq int64, blockID int) int {
	if pp, ok := mc.bpred.(*perfectPred); ok {
		pp.seq = seq + 1
	}
	return mc.bpred.predict(blockID)
}

// trainPredictor records a block's final branch outcome at commit.
func (mc *Machine) trainPredictor(blockID, actual int) {
	mc.bpred.train(blockID, actual)
}

// fetchTargetNow computes which block should be fetched next, preferring a
// resolved (possibly still speculative) branch outcome of the youngest
// in-flight block over prediction.
func (mc *Machine) fetchTargetNow() (seq int64, blockID int, ok bool) {
	seq = mc.nextSeq
	if len(mc.window) == 0 {
		return seq, mc.resumeID, true
	}
	y := mc.window[len(mc.window)-1]
	if y.seq+1 != seq {
		// The youngest mapped block is not the predecessor of nextSeq only
		// while a fetch is pending; callers check fetch.active first.
		return 0, 0, false
	}
	if y.branch.Present {
		return seq, int(y.branch.Value), true
	}
	return seq, mc.predictNext(y.seq, y.blockID), true
}

// fetchAction classifies what stepFetch did in a cycle.  The run loop keeps
// the last action so an idle-gap fast-forward can replicate it: every
// non-progress action depends only on state that is frozen during a null
// cycle (the window, frame occupancy, LSQ occupancy, and the pure
// next-block prediction), so the same action — including its stall-counter
// increment — would recur on every skipped cycle.
type fetchAction int

const (
	// fetchIdle: nothing to fetch (halted, halt-predicted, or an unresolved
	// garbage indirect target); no state changed, no counter moved.
	fetchIdle fetchAction = iota
	// fetchWaiting: a fetch is in flight and completes at fetch.readyAt.
	fetchWaiting
	// fetchStallFrames: all frames busy; FetchStallFrames was incremented.
	fetchStallFrames
	// fetchStallLSQ: the block's memory ops do not fit the LSQ;
	// FetchStallLSQ was incremented.
	fetchStallLSQ
	// fetchProgress: a block was mapped or a new fetch issued (cache state
	// advanced) — never replicable.
	fetchProgress
)

// stepFetch advances the fetch engine one cycle: complete a pending fetch
// by mapping the block, or start a new fetch if a frame is free.
func (mc *Machine) stepFetch() fetchAction {
	if mc.fetch.active {
		if mc.cycle >= mc.fetch.readyAt {
			if mc.tracer != nil {
				mc.tracer.RecordSpan(trace.SpanFetch, mc.fetch.seq, mc.fetch.blockID, 0, mc.fetch.startedAt, mc.cycle)
			}
			mc.mapBlock(mc.fetch.seq, mc.fetch.blockID)
			mc.fetch.active = false
			return fetchProgress
		}
		return fetchWaiting
	}
	if mc.done {
		return fetchIdle
	}
	frame := int(mc.nextSeq) % mc.cfg.Frames
	if mc.frameBusy[frame] {
		mc.stats.FetchStallFrames++
		return fetchStallFrames
	}
	seq, blockID, ok := mc.fetchTargetNow()
	if !ok || blockID == isa.HaltTarget {
		return fetchIdle
	}
	if cap := mc.cfg.LSQCapacity; cap > 0 {
		if mc.q.Occupancy()+len(mc.memIdx[blockID]) > cap {
			mc.stats.FetchStallLSQ++
			return fetchStallLSQ
		}
	}
	if blockID < 0 || blockID >= len(mc.prog.Blocks) {
		// A garbage indirect-branch prediction target: wait for resolution.
		return fetchIdle
	}
	lat := mc.hier.InstAccess(codeBase+uint64(blockID)*512) + mc.cfg.FetchCycles
	mc.fetch = pendingFetch{active: true, seq: seq, blockID: blockID, readyAt: mc.cycle + int64(lat), startedAt: mc.cycle}
	mc.stats.FetchedBlocks++
	return fetchProgress
}

// mapBlock allocates a frame and injects the block into the window:
// reservation stations are initialised, memory operations are registered
// with the LSQ, register reads are bound and their values requested, and
// zero-input instructions become ready.
func (mc *Machine) mapBlock(seq int64, blockID int) {
	bdef := mc.prog.Blocks[blockID]
	frame := int(seq) % mc.cfg.Frames
	mc.frameGens[frame]++
	mc.frameBusy[frame] = true

	b := mc.takeBlock()
	*b = blockInst{
		seq:      seq,
		blockID:  blockID,
		bdef:     bdef,
		frame:    int32(frame),
		gen:      mc.frameGens[frame],
		insts:    resliceCleared(b.insts, len(bdef.Insts)),
		needs:    mc.needs[blockID],
		writes:   resliceCleared(b.writes, len(bdef.Writes)),
		ops:      resliceCleared(b.ops, len(bdef.Insts)*int(isa.NumSlots)),
		readBind: b.readBind, // sized below, every element assigned
		regRead:  mc.regReads[blockID],
		mapCycle: mc.cycle,
	}
	mc.window = append(mc.window, b)
	mc.nextSeq = seq + 1
	mc.stats.MappedBlocks++

	// Register memory operations with the LSQ (which copies them into its
	// own entries, so the staging buffer is reusable).
	ops := mc.opsBuf[:0]
	for _, idx := range mc.memIdx[blockID] {
		in := &bdef.Insts[idx]
		ops = append(ops, lsq.OpInfo{
			LSID:    in.LSID,
			IsStore: in.Op.IsStore(),
			Size:    in.Op.MemSize(),
			PC:      predictor.MakePC(blockID, idx),
		})
		if in.Op.IsStore() {
			b.numStores++
		}
	}
	mc.q.RegisterBlock(seq, ops)
	mc.opsBuf = ops

	// Zero-input instructions (constants, unpredicated branches) are ready
	// immediately.
	for i := range bdef.Insts {
		if bdef.Insts[i].NumInputs() == 0 {
			b.need.Set(i)
			mc.enqueueReady(b, i)
		}
	}

	// Map-time load-value prediction: a confident stride prediction is
	// injected into the consumers immediately, before the load's address
	// chain has even started — the full load-to-use latency is hidden and
	// a wrong guess is repaired by a DSRE wave when the real value arrives.
	if mc.vp != nil {
		for _, idx := range mc.memIdx[blockID] {
			in := &bdef.Insts[idx]
			if !in.Op.IsLoad() {
				continue
			}
			if pv, ok := mc.vp.Predict(predictor.MakePC(blockID, idx)); ok {
				st := &b.insts[idx]
				st.vpValid, st.vpValue = true, pv
				mc.stats.VPIssued++
				src := mc.tiles[mc.instTile(blockID, idx)].node
				for _, t := range in.Targets {
					mc.routeTarget(b, t, pv, 0, false, src, 1)
				}
			}
		}
	}

	// Bind register reads to the youngest older in-flight writer, or the
	// architectural file, and request initial values.
	if cap(b.readBind) < len(bdef.Reads) {
		b.readBind = make([]int64, len(bdef.Reads))
	} else {
		b.readBind = b.readBind[:len(bdef.Reads)]
	}
	for r := range bdef.Reads {
		reg := bdef.Reads[r].Reg
		b.readBind[r] = -1
		for i := len(mc.window) - 2; i >= 0; i-- {
			p := mc.window[i]
			if p.bdef.WritesReg(reg) {
				b.readBind[r] = p.seq
				break
			}
		}
		if b.readBind[r] < 0 {
			// Architectural value: final by construction.
			mc.pushRead(b, r, mc.arch[reg], 0, true, mc.cfg.RegReadLatency, mc.regNode(reg))
			continue
		}
		// Pull whatever the producer's write slot already holds.
		p := mc.blockAt(b.readBind[r])
		w := writeIndex(p.bdef, reg)
		ws := &p.writes[w]
		if ws.slot.Present {
			mc.pushRead(b, r, ws.slot.Value, ws.slot.Tag, ws.slot.Committed, mc.cfg.RegReadLatency, mc.regNode(reg))
		}
	}
}

// writeIndex finds the write slot index of reg in a block definition.
func writeIndex(bdef *isa.Block, reg uint8) int {
	for i, w := range bdef.Writes {
		if w.Reg == reg {
			return i
		}
	}
	panic("sim: writeIndex: block does not write register")
}

// pushRead relays a register value from the register tile to a read slot's
// dataflow targets.  delay models the register-file access before network
// injection.
func (mc *Machine) pushRead(b *blockInst, readIdx int, v int64, tag core.Tag, committed bool, delay, src int) {
	rd := &b.bdef.Reads[readIdx]
	for _, t := range rd.Targets {
		mc.routeTarget(b, t, v, tag, committed, src, delay)
	}
}

// routeTarget sends a produced value to one dataflow target (an operand
// slot or a register write slot).
func (mc *Machine) routeTarget(b *blockInst, t isa.Target, v int64, tag core.Tag, committed bool, src int, delay int) {
	switch t.Kind {
	case isa.TargetWrite:
		reg := b.bdef.Writes[t.Index].Reg
		mc.sendAfter(delay, src, mc.regNode(reg), message{
			kind: msgWrite, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: t.Index, value: v, tag: tag, committed: committed,
		})
	case isa.TargetInst:
		dst := mc.tiles[mc.instTile(b.blockID, int(t.Index))].node
		mc.sendAfter(delay, src, dst, message{
			kind: msgOperand, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: t.Index, slot: uint8(t.Slot), value: v, tag: tag, committed: committed,
		})
	}
}
