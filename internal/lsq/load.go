package lsq

import (
	"slices"

	"repro/internal/core"
	"repro/internal/predictor"
)

// LoadResult is the outcome of a load issue attempt.
type LoadResult struct {
	Deferred bool
	Reason   DeferReason
	Value    int64
	Tag      core.Tag
	Latency  int
	PC       predictor.PC // static identity, for value-predictor training
}

// LoadTry records a load execution (the address arriving at the LSQ) and
// attempts to issue it under the configured policy.  Re-executions of the
// same load (a new address under DSRE) re-enter here and produce a fresh
// reply.  now is the current cycle, used for MSHR accounting.
func (q *Queue) LoadTry(now int64, k core.DynRef, addr uint64, tag core.Tag) LoadResult {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) {
		return LoadResult{Deferred: true, Reason: DeferNone} // stale message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	q.exec[s].Set(op)
	q.addr[f] = addr
	q.lwords[s] |= wordBits(addr, int(q.size[f]))
	if first {
		q.Stats.Loads++
	}
	// Tag of the reply: never older than anything already sent for this
	// load, so consumers accept the newest execution.
	q.tag[f] = core.MaxTag(q.tag[f], tag)
	return q.tryIssue(now, k, s, op)
}

// tryIssue applies the policy and, if permitted, produces the load's value.
func (q *Queue) tryIssue(now int64, k core.DynRef, s, op int) LoadResult {
	f := s*opStride + op
	if q.mustDefer(k, s, op) {
		q.park(k, s, op)
		q.deferredAt[f] = q.storeExecs + 1
		q.Stats.DeferredPolicy++
		return LoadResult{Deferred: true, Reason: DeferPolicy}
	}
	q.deferredAt[f] = 0
	size := int(q.size[f])
	v, fwd := q.reconstruct(k, q.addr[f], size)
	lat := q.cfg.ForwardLatency
	if fwd == size {
		q.Stats.Forwards++
	} else {
		clat, ok := q.hier.DataAccess(now, q.addr[f], false)
		if !ok {
			// All MSHRs busy: park and retry as time passes.
			q.park(k, s, op)
			q.mshrWait = true
			q.Stats.DeferredMSHR++
			return LoadResult{Deferred: true, Reason: DeferMSHR}
		}
		if clat > lat {
			lat = clat
		}
		if fwd > 0 {
			q.Stats.PartialForwards++
		}
	}
	q.issued[s].Set(op)
	q.parked[s].Clear(op)
	q.data[f] = v
	// Issuing is one of the conditions certification waits on.
	q.certDirty = true
	return LoadResult{Value: v, Tag: q.tag[f], Latency: lat, PC: q.pc[f]}
}

// park puts a load on the deferred list unless it is already there.
func (q *Queue) park(k core.DynRef, s, op int) {
	if !q.parked[s].Test(op) {
		q.parked[s].Set(op)
		q.deferred = append(q.deferred, k)
	}
}

// GuardLoad marks a flushed violating load: its replayed instance (same
// dynamic key) issues conservatively, guaranteeing forward progress.
func (q *Queue) GuardLoad(k core.DynRef) {
	if !slices.Contains(q.guard, k) {
		q.guard = append(q.guard, k)
	}
	q.Stats.GuardedLoads++
}

// mustDefer evaluates the issue policy for a load whose address is known:
// whether it must wait for older stores.  Every reason it returns true
// lifts only when some store executes for the first time (see the package
// comment), which is what lets TakeReady skip re-evaluating it until then.
func (q *Queue) mustDefer(k core.DynRef, s, op int) bool {
	if slices.Contains(q.guard, k) && q.anyOlderStoreUnexecuted(k) {
		return true
	}
	switch q.cfg.Policy {
	case core.IssueAggressive:
		return false
	case core.IssueConservative:
		return q.anyOlderStoreUnexecuted(k)
	case core.IssueStoreSet, core.IssueOracle:
		f := s*opStride + op
		if !q.waitValid[s].Test(op) || !q.waitFor[f].Valid() {
			return false
		}
		w := q.waitFor[f]
		if !w.Less(k) {
			return false // not actually older; ignore
		}
		ws, wop := q.opSlot(w)
		// Gone from the window, or already executed: no wait.
		return ws >= 0 && q.stores[ws].Test(wop) && !q.exec[ws].Test(wop)
	}
	return false
}

// anyOlderStoreUnexecuted reports whether some store older than k in the
// window has not yet executed: one AND-NOT word test per block (the
// bitmap replacement for the old per-entry scan).
func (q *Queue) anyOlderStoreUnexecuted(k core.DynRef) bool {
	if q.n == 0 {
		return false
	}
	base := q.seqs[q.head]
	last := k.Seq - base
	if last >= int64(q.n) {
		last = int64(q.n) - 1
	}
	for l := int64(0); l <= last; l++ {
		s := (q.head + int(l)) & q.ringMask()
		pend := q.stores[s] &^ q.exec[s]
		if base+l == k.Seq {
			pend = pend.Below(int(k.LSID))
		}
		if !pend.Empty() {
			return true
		}
	}
	return false
}

// HasReadyWork reports whether the next TakeReady call will re-evaluate
// parked loads (as opposed to returning immediately).  The event-driven
// run loop uses it to classify a cycle as active: a re-evaluation scan can
// issue loads or count deferral retries even when it returns nothing.
func (q *Queue) HasReadyWork() bool {
	return (q.dirty || q.mshrWait) && len(q.deferred) > 0
}

// TakeReady re-evaluates parked loads and returns those that can now issue,
// appending into buf (pass buf[:0] to reuse a scratch buffer; the result
// must be consumed before the next call).  Call once per cycle; it is cheap
// when nothing changed.  Loads parked on a full MSHR file are retried every
// cycle regardless of queue events.  A load deferred by policy is
// re-evaluated only once a store has executed for the first time since its
// deferral; until then it is counted as deferred again without the policy
// check, which would have deferred it (see the package comment).
func (q *Queue) TakeReady(now int64, buf []ReadyLoad) []ReadyLoad {
	if !q.HasReadyWork() {
		q.dirty = false
		return buf
	}
	q.dirty = false
	q.mshrWait = false
	out := buf
	kept := q.deferred[:0]
	for _, k := range q.deferred {
		s, op := q.opSlot(k)
		if s < 0 || !q.parked[s].Test(op) {
			continue // squashed or already issued
		}
		if q.deferredAt[s*opStride+op] == q.storeExecs+1 {
			q.Stats.DeferredPolicy++
			kept = append(kept, k)
			continue
		}
		r := q.tryIssue(now, k, s, op)
		if r.Deferred {
			kept = append(kept, k)
			continue
		}
		out = append(out, ReadyLoad{Load: k, Addr: q.addr[s*opStride+op], Res: r})
	}
	q.deferred = kept
	return out
}

// LoadInputsCommitted marks that the load's address operands are final (the
// commit wave reached its inputs); the load becomes a certification
// candidate, stamped with its arrival order.
func (q *Queue) LoadInputsCommitted(k core.DynRef) {
	s, op := q.opSlot(k)
	if s < 0 || q.stores[s].Test(op) || q.inputsCom[s].Test(op) {
		return
	}
	q.inputsCom[s].Set(op)
	q.stamp[s*opStride+op] = q.nextStamp
	q.nextStamp++
	q.nCand++
	q.dirty = true
	q.certDirty = true
}

// CertifiedLoad is a load whose value is final.
type CertifiedLoad struct {
	Load  core.DynRef
	Addr  uint64
	Value int64
}

// TakeCertifiable returns loads that are newly certifiable: issued, address
// final, and no older store able to change their value — appending into
// buf (pass buf[:0] to reuse a scratch buffer) in the order the loads
// became candidates.  The returned value is asserted equal to the load's
// current value — every store update re-checked younger loads, so a
// mismatch here would be a protocol bug.
//
// An older store is harmless when it is committed, or when its address is
// final (committed, executed, not nullified) and does not overlap the
// load; only true aliases wait for store data.  One walk from the window
// head in (seq, LSID) order decides every candidate: uncommitted
// address-final stores join a pending list (summarised by a 64-bit
// address-word filter), and the first uncommitted store whose address is
// not final is the barrier — no load younger than it can certify, so the
// walk stops there.  A candidate before the barrier certifies unless it
// overlaps a pending store; the pending list is walked only on a filter
// hit.  The scan costs O(blocks up to the barrier + stores and candidates
// before it), independent of how deep the window behind the barrier is.
func (q *Queue) TakeCertifiable(buf []CertifiedLoad) []CertifiedLoad {
	if q.nCand == 0 || !q.certDirty {
		// Nothing to certify, or nothing relevant changed since the last
		// scan: skipping is behaviour-identical (a yield-less scan moves no
		// statistics).
		return buf
	}
	q.certDirty = false
	out := buf
	q.pend = q.pend[:0]
	q.hitStamp = q.hitStamp[:0]
	var filter uint64
	base := q.seqs[q.head]
	seen := 0
	for l := 0; l < q.n && seen < q.nCand; l++ {
		s := (q.head + l) & q.ringMask()
		open := q.stores[s] &^ q.committed[s]
		cands := q.inputsCom[s] &^ q.certified[s]
		barrier := open &^ (q.addrCom[s] & q.exec[s] &^ q.null[s])
		if !barrier.Empty() {
			b := barrier.Min()
			open, cands = open.Below(b), cands.Below(b)
			seen = q.nCand // nothing past the barrier can certify
		} else {
			seen += cands.Count()
		}
		fb := s * opStride
		for m := open | cands; !m.Empty(); m &= m - 1 { // clear the lowest set bit
			i := m.Min()
			f := fb + i
			laddr, lsize := q.addr[f], int(q.size[f])
			if open.Test(i) {
				q.pend = append(q.pend, span{laddr, laddr + uint64(lsize)})
				filter |= wordBits(laddr, lsize)
				continue
			}
			if !q.issued[s].Test(i) || filter&wordBits(laddr, lsize) != 0 && q.aliasesPending(laddr, lsize) {
				continue
			}
			k := core.DynRef{Seq: base + int64(l), LSID: int8(i)}
			v, _ := q.reconstruct(k, laddr, lsize)
			if v != q.data[f] {
				panic("lsq: certification value mismatch for " + k.String() + " (missed violation)")
			}
			q.certified[s].Set(i)
			out = append(out, CertifiedLoad{Load: k, Addr: laddr, Value: v})
			q.hitStamp = append(q.hitStamp, q.stamp[f])
		}
	}
	q.nCand -= len(q.hitStamp)
	sortByStamp(out[len(buf):], q.hitStamp)
	return out
}

// aliasesPending reports whether [addr, addr+size) overlaps any store on
// the scan's pending list.  It walks youngest first: a candidate held by a
// true alias is usually held by the nearest older store, and such
// candidates are re-checked on every scan until that store commits.
func (q *Queue) aliasesPending(addr uint64, size int) bool {
	end := addr + uint64(size)
	for j := len(q.pend) - 1; j >= 0; j-- {
		if sp := q.pend[j]; sp.lo < end && addr < sp.hi {
			return true
		}
	}
	return false
}

// sortByStamp orders a scan's hits by arrival stamp (insertion sort: the
// walk finds them in age order, which is nearly arrival order).
func sortByStamp(hits []CertifiedLoad, stamps []uint64) {
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && stamps[j] < stamps[j-1]; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
			stamps[j], stamps[j-1] = stamps[j-1], stamps[j]
		}
	}
}

// Occupancy returns the number of resident entries (for stats).
func (q *Queue) Occupancy() int { return q.occupancy() }

// MarkDirty forces deferred-load re-evaluation on the next TakeReady (used
// by the simulator after events the queue cannot see, e.g. MSHR drain).
func (q *Queue) MarkDirty() { q.dirty = true }
