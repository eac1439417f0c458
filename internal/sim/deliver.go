package sim

import (
	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/trace"
)

// commitSrc returns the network source for a commit-only token: the real
// producer node normally, or -1 (deliver locally at the destination,
// consuming no network bandwidth) under the CommitTokensFree ablation.
func (mc *Machine) commitSrc(src int) int {
	if mc.cfg.CommitTokensFree {
		return -1
	}
	return src
}

// deliver is the network's delivery callback: every message arriving at its
// destination's local port dispatches here.
func (mc *Machine) deliver(now int64, node int, m message) {
	switch m.kind {
	case msgOperand:
		mc.handleOperand(m)
	case msgWrite:
		mc.handleWrite(m)
	case msgBranch:
		mc.handleBranch(m)
	case msgLoadReq:
		mc.handleLoadReq(m)
	case msgStoreReq:
		mc.handleStoreReq(m)
	case msgStoreNull:
		mc.handleStoreNull(m)
	}
}

// handleOperand applies a data or commit message to an operand slot.
func (mc *Machine) handleOperand(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	st := &b.insts[m.idx]
	slot := b.slot(int(m.idx), isa.Slot(m.slot))
	var reexec bool
	if m.committed {
		if assertsEnabled && slot.Committed && slot.Value != m.value {
			mc.failAssert("operand slot double-commit with diverging values: seq %d inst %d slot %d holds %d, token carries %d",
				m.seq, m.idx, m.slot, slot.Value, m.value)
		}
		reexec = slot.DeliverCommit(m.value)
	} else {
		reexec = slot.Deliver(m.value, m.tag, mc.cfg.SuppressIdenticalValues)
	}
	if reexec {
		b.need.Set(int(m.idx))
		st.committedSent = false
		mc.enqueueReady(b, int(m.idx))
	}
	if isa.Slot(m.slot) == isa.SlotP {
		mc.maybeNullify(b, int(m.idx))
	}
	if m.committed && !reexec {
		mc.maybeEmitCommitOnly(b, int(m.idx))
		mc.maybeEmitStorePartial(b, int(m.idx))
	}
}

// handleWrite applies a value to a register write slot and relays it to
// every younger in-flight block whose matching read is bound here.
func (mc *Machine) handleWrite(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	ws := &b.writes[m.idx]
	reg := b.bdef.Writes[m.idx].Reg
	var changed bool
	if m.committed {
		if assertsEnabled && ws.slot.Committed && ws.slot.Value != m.value {
			mc.failAssert("register write slot double-commit with diverging values: seq %d write %d reg %d holds %d, token carries %d",
				m.seq, m.idx, reg, ws.slot.Value, m.value)
		}
		changed = ws.slot.DeliverCommit(m.value)
		if !ws.counted {
			ws.counted = true
			b.writesCommitted++
		}
	} else {
		changed = ws.slot.Deliver(m.value, m.tag, mc.cfg.SuppressIdenticalValues)
	}
	if !changed && !m.committed {
		return
	}
	// Push to younger bound readers.  Pure commit relays may use the free
	// path under the ablation; value changes are real operand traffic.
	src := mc.regNode(reg)
	if m.committed && !changed {
		src = mc.commitSrc(src)
	}
	for _, y := range mc.window {
		if y.seq <= b.seq {
			continue
		}
		r := y.regRead[reg]
		if r < 0 || y.readBind[r] != b.seq {
			continue
		}
		mc.pushRead(y, int(r), ws.slot.Value, ws.slot.Tag, ws.slot.Committed, 0, src)
	}
}

// handleBranch applies a branch outcome to the block's control slot and
// validates the fetched successor against it.
func (mc *Machine) handleBranch(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	var changed bool
	if m.committed {
		changed = b.branch.DeliverCommit(m.value)
		b.branchCounted = true
	} else {
		changed = b.branch.Deliver(m.value, m.tag, mc.cfg.SuppressIdenticalValues)
	}
	if changed || m.committed {
		mc.checkSuccessor(b)
	}
}

// checkSuccessor squashes the fetched successor path when it disagrees with
// the block's (current) branch outcome.
func (mc *Machine) checkSuccessor(b *blockInst) {
	want := int(b.branch.Value)
	if next := mc.blockAt(b.seq + 1); next != nil {
		if next.blockID != want {
			mc.stats.BranchSquashes++
			mc.squashFrom(b.seq+1, want)
		}
		return
	}
	if mc.fetch.active && mc.fetch.seq == b.seq+1 && mc.fetch.blockID != want {
		mc.stats.BranchSquashes++
		mc.fetch.active = false
		mc.resumeIfEmpty(want)
	}
}

// resumeIfEmpty records where fetch should resume when the window has no
// youngest block to consult.
func (mc *Machine) resumeIfEmpty(blockID int) {
	mc.resumeID = blockID
}

// handleLoadReq processes a load address arriving at the LSQ.
func (mc *Machine) handleLoadReq(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	key := core.DynRef{Seq: m.seq, LSID: m.lsid}
	res := mc.q.LoadTry(mc.cycle, key, m.addr, m.tag)
	if m.committed {
		mc.q.LoadInputsCommitted(key)
	}
	if !res.Deferred {
		mc.emitLoadResult(b, int(m.idx), m.addr, res)
	}
}

// emitLoadResult broadcasts a load's reply.  Under value prediction the
// predictor trains on the actual value, and a reply disagreeing with the
// map-time prediction is promoted to a fresh DSRE wave so it overrides the
// predicted value at every consumer.
func (mc *Machine) emitLoadResult(b *blockInst, idx int, addr uint64, res lsq.LoadResult) {
	tag := res.Tag
	if mc.vp != nil {
		st := &b.insts[idx]
		if !st.vpTrained {
			st.vpTrained = true
			mc.vp.Train(res.PC, res.Value)
		}
		if st.vpValid {
			if st.vpValue != res.Value && tag == 0 {
				tag = mc.tags.Next()
				mc.stats.VPCorrections++
				in := &b.bdef.Insts[idx]
				mc.acct.forensics.Record(account.EventVP, b.seq, int(in.LSID),
					res.PC, 0, tag, 0, 0)
			} else if st.vpValue == res.Value {
				mc.stats.VPHits++
			}
			st.vpValid = false
		}
	}
	mc.broadcastLoadReply(b, idx, addr, res.Value, tag, res.Latency, false)
}

// handleStoreReq processes a store execution (or re-execution) at the LSQ.
func (mc *Machine) handleStoreReq(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	key := core.DynRef{Seq: m.seq, LSID: m.lsid}
	vs := mc.q.StoreUpdate(key, m.addr, m.value, m.tag, m.addrCom, m.dataCom)
	if m.committed {
		mc.q.StoreCommitted(key)
		st := &b.insts[m.idx]
		if !st.storeCommitCounted {
			st.storeCommitCounted = true
			b.storesCommitted++
		}
	}
	mc.handleViolations(vs)
}

// handleStoreNull processes a nullified predicated store at the LSQ.
func (mc *Machine) handleStoreNull(m message) {
	b := mc.live(&m)
	if b == nil {
		mc.stats.StaleMsgs++
		return
	}
	key := core.DynRef{Seq: m.seq, LSID: m.lsid}
	vs := mc.q.StoreNullify(key)
	if m.committed {
		mc.q.StoreCommitted(key)
		st := &b.insts[m.idx]
		if !st.storeCommitCounted {
			st.storeCommitCounted = true
			b.storesCommitted++
		}
	}
	mc.handleViolations(vs)
}

// broadcastLoadReply delivers a load's value from the LSQ tile directly to
// the load's dataflow consumers (TRIPS-style D-tile delivery).  lat models
// the forwarding/cache latency before network injection.
func (mc *Machine) broadcastLoadReply(b *blockInst, idx int, addr uint64, v int64, tag core.Tag, lat int, committed bool) {
	in := &b.bdef.Insts[idx]
	src := mc.memNode(addr)
	if committed {
		src = mc.commitSrc(src)
	}
	for _, t := range in.Targets {
		mc.routeTarget(b, t, v, tag, committed, src, lat)
	}
}

// handleViolations applies the configured recovery to a batch of load-store
// ordering violations reported by the LSQ.
func (mc *Machine) handleViolations(vs []lsq.Violation) {
	if len(vs) == 0 {
		return
	}
	switch mc.cfg.Recovery {
	case core.RecoverFlush:
		// Squash from the oldest violated load's block and refetch it.
		min := vs[0].Load
		for _, v := range vs[1:] {
			if v.Load.Less(min) {
				min = v.Load
			}
		}
		b := mc.blockAt(min.Seq)
		if b == nil {
			mc.fail("sim: violation for unknown block %d", min.Seq)
			return
		}
		for _, v := range vs {
			mc.q.GuardLoad(v.Load)
		}
		mc.stats.Flushes++
		// Audit every violation; the squash's real cost lands on the
		// oldest (the one the flush restarts from), the rest ride along.
		cost := mc.squashEquivCost(min.Seq)
		for _, v := range vs {
			c := int64(0)
			if v.Load == min {
				c = cost
			}
			mc.acct.forensics.Record(account.EventFlush, v.Load.Seq, int(v.Load.LSID),
				v.LoadPC, v.StorePC, v.Tag, v.StoreTag, c)
		}
		mc.squashFrom(min.Seq, b.blockID)
	case core.RecoverDSRE:
		for _, v := range vs {
			b := mc.blockAt(v.Load.Seq)
			if b == nil {
				mc.fail("sim: violation for unknown block %d", v.Load.Seq)
				return
			}
			idx := mc.memIdx[b.blockID][v.Load.LSID]
			mc.stats.DSRECorrections++
			mc.acct.forensics.Record(account.EventWave, v.Load.Seq, int(v.Load.LSID),
				v.LoadPC, v.StorePC, v.Tag, v.StoreTag, mc.squashEquivCost(v.Load.Seq))
			if mc.tracer != nil {
				mc.tracer.Record(mc.cycle, trace.KindCorrection, v.Load.Seq, idx, uint64(v.Tag))
			}
			// The corrected value re-enters the dataflow graph as a new
			// speculative wave after the violation-detection latency.
			mc.broadcastLoadReply(b, idx, v.Addr, v.Value, v.Tag, mc.cfg.ViolationLatency, false)
		}
	}
}
