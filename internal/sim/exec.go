package sim

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
)

// enqueueReady sets an instruction's bit in its tile's ready masks if it
// can execute and is not already queued.
func (mc *Machine) enqueueReady(b *blockInst, idx int) {
	if b.queued.Test(idx) || !b.need.Test(idx) {
		return
	}
	if !b.operandsPresent(idx) {
		return
	}
	if en, ok := b.predEnabled(idx, &b.bdef.Insts[idx]); !ok || !en {
		return
	}
	b.queued.Set(idx)
	tile := mc.instTile(b.blockID, idx)
	t := &mc.tiles[tile]
	slot := int(b.seq) & mc.tileRingMask
	m := &t.ready[slot]
	if m.Empty() {
		t.readyBlocks.Set(slot)
	}
	m.Set(idx)
	t.readyCount++
	mc.markTileActive(tile)
}

// stepTiles advances every tile with resident work and reports whether any
// tile did anything.  Tiles are visited in ascending index order — via the
// active mask normally, densely when mc.dense is set — so issue arbitration is
// identical either way.  No new tiles activate during the scan (activation
// happens in message handlers and at block map, both outside this phase);
// stepTile only clears its own tile's bit, so the word snapshot is safe.
func (mc *Machine) stepTiles() bool {
	progress := false
	if mc.dense {
		for ti := range mc.tiles {
			if mc.stepTile(ti) {
				progress = true
			}
		}
		return progress
	}
	for w, word := range mc.tileActive {
		for word != 0 {
			ti := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if mc.stepTile(ti) {
				progress = true
			}
		}
	}
	return progress
}

// stepTile issues at most one instruction on one tile (oldest block first,
// then lowest index) and retires completed executions.  A tile whose queues
// both drain deactivates itself.
func (mc *Machine) stepTile(ti int) bool {
	t := &mc.tiles[ti]
	progress := false

	// Retire completions.
	if len(t.busy) > 0 {
		kept := t.busy[:0]
		for _, j := range t.busy {
			if j.completeAt > mc.cycle {
				kept = append(kept, j)
				continue
			}
			mc.completeExec(j)
			progress = true
		}
		t.busy = kept
	}

	// Issue one ready instruction.  Any queued work counts as progress: the
	// pop below mutates tile state, so a cycle is only provably idle when
	// every tile's issue stage is empty.
	if t.readyCount > 0 {
		progress = true
		var base int64
		if len(mc.window) > 0 {
			base = mc.window[0].seq
		}
		seq, idx, _ := t.dequeueReady(base, mc.tileRingMask)
		// Set bits always name live blocks (squash/commit reclaim them
		// eagerly), so the block lookup cannot miss.
		b := mc.blockAt(seq)
		b.queued.Clear(idx)
		// Readiness may have lapsed (e.g. predicate flipped since enqueue).
		in := &b.bdef.Insts[idx]
		switch {
		case !b.need.Test(idx) || !b.operandsPresent(idx):
		default:
			if en, ok := b.predEnabled(idx, in); ok && en {
				b.need.Clear(idx)
				b.insts[idx].inflight++
				lat := mc.cfg.opLatency(in.Op)
				t.busy = append(t.busy, aluJob{
					completeAt: mc.cycle + int64(lat),
					frame:      b.frame, gen: b.gen, seq: seq, idx: idx,
				})
				mc.stats.Issued++
			}
		}
	}

	if t.readyCount == 0 && len(t.busy) == 0 {
		mc.tileActive[ti>>6] &^= 1 << (uint(ti) & 63)
	}
	return progress
}

// tileNext returns the earliest future cycle at which some tile has work to
// do: the minimum busy-job completion across active tiles.  After a null
// step every issue stage is empty (queued work would have been progress),
// so completions are the only pending tile events; a non-empty issue stage
// still forces the conservative answer out of caution.
func (mc *Machine) tileNext() int64 {
	next := int64(1) << 62
	for w, word := range mc.tileActive {
		for word != 0 {
			ti := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t := &mc.tiles[ti]
			if t.readyCount > 0 {
				return mc.cycle + 1
			}
			for _, j := range t.busy {
				if j.completeAt < next {
					next = j.completeAt
				}
			}
		}
	}
	return next
}

// completeExec finishes one ALU execution: the result is computed from the
// *current* operand slots and broadcast to the instruction's targets.
func (mc *Machine) completeExec(j aluJob) {
	b := mc.blockAt(j.seq)
	if b == nil || b.frame != j.frame || b.gen != j.gen {
		return // squashed while executing
	}
	st := &b.insts[j.idx]
	in := &b.bdef.Insts[j.idx]
	st.inflight--

	// The predicate may have flipped mid-execution; the enqueue triggered
	// by that flip handles re-evaluation, this result is dead.
	if en, ok := b.predEnabled(j.idx, in); !ok || !en {
		return
	}
	if !b.operandsPresent(j.idx) {
		return
	}

	a := b.slot(j.idx, isa.SlotA).Value
	bv := b.slot(j.idx, isa.SlotB).Value
	outTag := b.inputTag(j.idx)

	st.fired++
	b.fired++
	mc.stats.Executed++
	if st.fired > 1 {
		mc.stats.Reexecs++
		mc.acct.forensics.Reexecuted(outTag)
		if mc.tracer != nil {
			mc.tracer.Record(mc.cycle, trace.KindReexec, b.seq, j.idx, uint64(outTag))
		}
	} else if mc.tracer != nil {
		mc.tracer.Record(mc.cycle, trace.KindExec, b.seq, j.idx, uint64(outTag))
	}
	if mc.tracer != nil {
		lat := int64(mc.cfg.opLatency(in.Op))
		mc.tracer.RecordSpan(trace.SpanExec, b.seq, j.idx, uint64(outTag), mc.cycle-lat, mc.cycle)
	}

	committed := b.inputsCommitted(j.idx)
	src := mc.tiles[mc.instTile(b.blockID, j.idx)].node

	switch {
	case in.Op.IsLoad():
		addr := uint64(a + in.Imm)
		mc.send(src, mc.memNode(addr), message{
			kind: msgLoadReq, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(j.idx), lsid: in.LSID, addr: addr, tag: outTag, committed: committed,
		})
		st.lastOut, st.outTag, st.execValid = int64(addr), outTag, true
	case in.Op.IsStore():
		addr := uint64(a + in.Imm)
		addrCom, dataCom := b.storeCommitFlags(j.idx, in)
		mc.send(src, mc.memNode(addr), message{
			kind: msgStoreReq, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(j.idx), lsid: in.LSID, addr: addr, value: bv, tag: outTag,
			committed: committed, addrCom: addrCom, dataCom: dataCom,
		})
		st.sentAddrCom, st.sentDataCom = addrCom, dataCom
		st.lastOut, st.outTag, st.execValid = int64(addr)^bv, outTag, true
	case in.Op.IsBranch():
		target := in.Imm
		if in.Op == isa.OpBri {
			target = a
		}
		mc.send(src, mc.ctrlNode(), message{
			kind: msgBranch, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(j.idx), value: target, tag: outTag, committed: committed,
		})
		st.lastOut, st.outTag, st.execValid = target, outTag, true
	default:
		v := isa.Eval(in.Op, a, bv, in.Imm)
		st.lastOut, st.outTag, st.execValid = v, outTag, true
		for _, tgt := range in.Targets {
			mc.routeTarget(b, tgt, v, outTag, committed, src, 0)
		}
	}
	if committed {
		st.committedSent = true
	}
}

// maybeEmitCommitOnly re-emits an instruction's (unchanged) output with the
// committed flag once all its inputs have committed without changing the
// value — the commit wave catching up to a speculative wave that was
// already correct.
func (mc *Machine) maybeEmitCommitOnly(b *blockInst, idx int) {
	st := &b.insts[idx]
	in := &b.bdef.Insts[idx]
	if st.committedSent || !st.execValid || b.need.Test(idx) || st.inflight > 0 {
		return
	}
	if en, ok := b.predEnabled(idx, in); !ok || !en {
		return
	}
	if !b.inputsCommitted(idx) {
		return
	}
	st.committedSent = true
	src := mc.tiles[mc.instTile(b.blockID, idx)].node
	switch {
	case in.Op.IsLoad():
		mc.send(src, mc.memNode(uint64(st.lastOut)), message{
			kind: msgLoadReq, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(idx), lsid: in.LSID, addr: uint64(st.lastOut), tag: st.outTag, committed: true,
		})
	case in.Op.IsStore():
		a := b.slot(idx, isa.SlotA).Value
		d := b.slot(idx, isa.SlotB).Value
		mc.send(src, mc.memNode(uint64(a+in.Imm)), message{
			kind: msgStoreReq, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(idx), lsid: in.LSID, addr: uint64(a + in.Imm), value: d, tag: st.outTag,
			committed: true, addrCom: true, dataCom: true,
		})
		st.sentAddrCom, st.sentDataCom = true, true
	case in.Op.IsBranch():
		mc.send(src, mc.ctrlNode(), message{
			kind: msgBranch, frame: b.frame, gen: b.gen, seq: b.seq,
			idx: uint8(idx), value: st.lastOut, tag: st.outTag, committed: true,
		})
	default:
		for _, tgt := range in.Targets {
			mc.routeTarget(b, tgt, st.lastOut, st.outTag, true, src, 0)
		}
	}
}

// maybeEmitStorePartial informs the LSQ when the commit wave has reached a
// store's address (or data) operand before the other: a committed,
// non-overlapping store address is what lets younger independent loads
// certify without waiting for this store's data.
func (mc *Machine) maybeEmitStorePartial(b *blockInst, idx int) {
	st := &b.insts[idx]
	in := &b.bdef.Insts[idx]
	if !in.Op.IsStore() || st.committedSent || !st.execValid || b.need.Test(idx) || st.inflight > 0 {
		return
	}
	if en, ok := b.predEnabled(idx, in); !ok || !en {
		return
	}
	addrCom, dataCom := b.storeCommitFlags(idx, in)
	if addrCom == st.sentAddrCom && dataCom == st.sentDataCom {
		return
	}
	st.sentAddrCom, st.sentDataCom = addrCom, dataCom
	a := b.slot(idx, isa.SlotA).Value
	d := b.slot(idx, isa.SlotB).Value
	src := mc.commitSrc(mc.tiles[mc.instTile(b.blockID, idx)].node)
	mc.send(src, mc.memNode(uint64(a+in.Imm)), message{
		kind: msgStoreReq, frame: b.frame, gen: b.gen, seq: b.seq,
		idx: uint8(idx), lsid: in.LSID, addr: uint64(a + in.Imm), value: d, tag: st.outTag,
		committed: addrCom && dataCom, addrCom: addrCom, dataCom: dataCom,
	})
}

// maybeNullify handles a predicated instruction whose predicate resolved to
// the disabling value: stores must tell the LSQ (so dependent loads revert
// and, when the predicate is final, the block's store count can commit).
func (mc *Machine) maybeNullify(b *blockInst, idx int) {
	st := &b.insts[idx]
	in := &b.bdef.Insts[idx]
	if in.Pred == isa.PredNone || !in.Op.IsStore() {
		return
	}
	p := b.slot(idx, isa.SlotP)
	if !p.Present {
		return
	}
	if en, _ := b.predEnabled(idx, in); en {
		return
	}
	// Send at most once per predicate version, plus once for the commit.
	if p.Committed {
		if st.nullCommSent {
			return
		}
		st.nullCommSent = true
	} else {
		if st.nullSent && st.nullTag == p.Tag {
			return
		}
		st.nullSent, st.nullTag = true, p.Tag
	}
	src := mc.tiles[mc.instTile(b.blockID, idx)].node
	mc.send(src, mc.memNode(0), message{
		kind: msgStoreNull, frame: b.frame, gen: b.gen, seq: b.seq,
		idx: uint8(idx), lsid: in.LSID, committed: p.Committed,
	})
}
