package lsq

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/bitset"
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
		return LoadResult{Deferred: true, Reason: DeferNone} // a message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	if first || q.addr[f] != addr {
		// A load re-executing at a new address keeps its issued bit while
		// the MSHRs are busy, so the re-check must find it at the new one,
		// and a certification candidate must be re-examined there.
		q.unindex(&q.loadIdx, f)
		q.exec[s].Set(op)
		q.addr[f] = addr
		q.index(&q.loadIdx, f)
		q.wakeCand(k, s, op)
	}
	if first {
		q.Stats.Loads++
	}
	// Tag of the reply: never older than anything already sent for this
	// load, so consumers accept the newest execution.
	q.tag[f] = core.MaxTag(q.tag[f], tag)
	return q.tryIssue(now, k, s, op)
}

// tryIssue applies the policy and, if permitted, produces the load's value.
// A load the policy defers waits on the store deferOn names; one the MSHRs
// turn away goes on the active list, retried every pass.
func (q *Queue) tryIssue(now int64, k core.DynRef, s, op int) LoadResult {
	f := s*opStride + op
	if w, wait := q.deferOn(k, s, op); wait {
		q.park(s, op)
		if !q.waiting[s].Test(op) {
			q.deactivate(s, op)
			q.waitOn(waitIssue, w, f)
			q.waiting[s].Set(op)
		}
		q.Stats.DeferredPolicy++
		return LoadResult{Deferred: true, Reason: DeferPolicy}
	}
	size := int(q.size[f])
	v, fwd := q.reconstruct(k, q.addr[f], size)
	lat := q.cfg.ForwardLatency
	if fwd == size {
		q.Stats.Forwards++
	} else {
		clat, ok := q.hier.DataAccess(now, q.addr[f], false)
		if !ok {
			// All MSHRs busy: park and retry as time passes.
			q.park(s, op)
			q.activate(k, s, op)
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
	q.parked[s].Clear(op) // drops its deferred-list entry
	q.deactivate(s, op)
	q.data[f] = v
	// Issuing is one of the conditions certification waits on.
	q.certDirty = true
	q.wakeCand(k, s, op)
	return LoadResult{Value: v, Tag: q.tag[f], Latency: lat, PC: q.pc[f]}
}

// park gives a load its deferred-list entry, at a new park position,
// unless it is already parked.
func (q *Queue) park(s, op int) {
	if q.parked[s].Test(op) {
		return
	}
	q.parked[s].Set(op)
	q.nextPos++
	q.ppos[s*opStride+op] = q.nextPos
}

// activate puts a parked load on the active list, which the next pass
// retries.
func (q *Queue) activate(k core.DynRef, s, op int) {
	if !q.active[s].Test(op) {
		q.active[s].Set(op)
		q.nActive++
		q.activeList = append(q.activeList, k)
	}
}

// deactivate takes a load off the active list: it issued or waits on a
// store again.  Its key may stay listed; a pass passes over it.
func (q *Queue) deactivate(s, op int) {
	if q.active[s].Test(op) {
		q.active[s].Clear(op)
		q.nActive--
	}
}

// wakeIssueWaiters moves the loads parked on store f to the active list:
// the store has executed for the first time.
func (q *Queue) wakeIssueWaiters(f int) {
	for n := q.wait[f][waitIssue].next; n != 0; {
		fl := int(n - 1)
		n = q.wait[fl][waitIssue].next
		q.wait[fl][waitIssue] = link{}
		s, op := fl/opStride, fl%opStride
		q.waiting[s].Clear(op)
		q.activate(q.keyAt(fl), s, op)
	}
	q.wait[f][waitIssue].next = 0
}

// GuardLoad marks a flushed violating load: its replayed instance (same
// dynamic key) issues conservatively, guaranteeing forward progress.
func (q *Queue) GuardLoad(k core.DynRef) {
	if !slices.Contains(q.guard, k) {
		q.guard = append(q.guard, k)
	}
	q.Stats.GuardedLoads++
}

// deferOn evaluates the issue policy for a load whose address is known:
// whether it must wait for an older store, and (by flat index) a store
// whose first execution can lift the wait.  Conservative issue and guarded replays
// wait on the oldest unexecuted older store, store-set and oracle issue on
// the store the load was predicted to depend on.  Nothing else can lift a
// deferral: a store's executed bit is never cleared, a squash that removes
// an older store removes the load too, and a guard is dropped only with
// the load's own block.  So the named store stays a valid thing to wait
// on until it executes, and a load woken before its deferral lifts simply
// waits again.
func (q *Queue) deferOn(k core.DynRef, s, op int) (int, bool) {
	if q.cfg.Policy == core.IssueConservative || len(q.guard) > 0 && slices.Contains(q.guard, k) {
		return q.oldestOlderUnexecutedStore(k)
	}
	// Store-set and oracle issue: a captured dependence (waitValid is set
	// only under those policies).
	f := s*opStride + op
	if !q.waitValid[s].Test(op) || !q.waitFor[f].Valid() {
		return 0, false
	}
	w := q.waitFor[f]
	if !w.Less(k) {
		return 0, false // not actually older; ignore
	}
	ws, wop := q.opSlot(w)
	// Gone from the window, or already executed: no wait.
	if ws < 0 || !q.stores[ws].Test(wop) || q.exec[ws].Test(wop) {
		return 0, false
	}
	return ws*opStride + wop, true
}

// oldestOlderUnexecutedStore returns the flat index of the oldest store
// older than k in the window that has not yet executed: one AND-NOT word
// test per block.
func (q *Queue) oldestOlderUnexecutedStore(k core.DynRef) (int, bool) {
	if q.n == 0 {
		return 0, false
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
			return s*opStride + pend.Min(), true
		}
	}
	return 0, false
}

// HasReadyWork reports whether the next TakeReady pass will retry a load:
// whether a live load is on the active list.  The event-driven run loop
// uses it to classify a cycle as active.
func (q *Queue) HasReadyWork() bool { return q.nActive > 0 }

// TakeReady runs a re-evaluation pass over the deferred list and returns
// the loads that can now issue, appending into buf (pass buf[:0] to reuse
// a scratch buffer; the result must be consumed before the next call).
// Call once per cycle; it is cheap when nothing changed.  A pass retries
// only the active loads — woken by their store's first execution, or
// parked on a full MSHR file — each once, in park order.
func (q *Queue) TakeReady(now int64, buf []ReadyLoad) []ReadyLoad {
	if q.nActive == 0 {
		q.activeList = q.activeList[:0] // only loads that have left it
		return buf
	}
	ents := q.passBuf[:0]
	for _, k := range q.activeList {
		s, op := q.opSlot(k)
		if s < 0 || !q.active[s].Test(op) {
			continue // squashed, drained, issued or waiting again
		}
		q.active[s].Clear(op)
		ents = append(ents, parkEntry{k, q.ppos[s*opStride+op]})
	}
	q.nActive = 0
	q.activeList = q.activeList[:0]
	slices.SortFunc(ents, func(a, b parkEntry) int { return cmp.Compare(a.pos, b.pos) })
	out := buf
	for _, e := range ents {
		q.work.ReadyVisits++
		s, op := q.opSlot(e.k)
		if r := q.tryIssue(now, e.k, s, op); !r.Deferred {
			out = append(out, ReadyLoad{Load: e.k, Addr: q.addr[s*opStride+op], Res: r})
		}
	}
	q.passBuf = ents
	q.work.ReadyIssued += int64(len(out) - len(buf))
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
	q.wakeCand(k, s, op)
	q.certDirty = true
}

// wakeCand puts a certification candidate on the wake list, taking it off
// the store it waited on: something its certification depends on changed.
func (q *Queue) wakeCand(k core.DynRef, s, op int) {
	if !q.inputsCom[s].Test(op) || q.certified[s].Test(op) || q.certWoken[s].Test(op) {
		return
	}
	q.unwait(waitCert, s*opStride+op)
	q.certWoken[s].Set(op)
	q.certWake = append(q.certWake, k)
}

// wakeCertWaiters wakes the candidates store f blocks: its address moved
// or became final, it committed, or it is leaving the window.
func (q *Queue) wakeCertWaiters(f int) {
	for n := q.wait[f][waitCert].next; n != 0; {
		fl := int(n - 1)
		n = q.wait[fl][waitCert].next
		q.wait[fl][waitCert] = link{}
		q.certWoken[fl/opStride].Set(fl % opStride)
		q.certWake = append(q.certWake, q.keyAt(fl))
	}
	q.wait[f][waitCert].next = 0
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
// load; only true aliases wait for store data.  A scan examines only the
// woken candidates (see the package comment).  One that has not issued
// waits for its issue; one that some older store blocks waits on that
// store's waitCert list — the youngest barrier store (address not final)
// older than it, or else the youngest uncommitted store that aliases it,
// found in the store word index.  The rest certify.
func (q *Queue) TakeCertifiable(buf []CertifiedLoad) []CertifiedLoad {
	if q.nCand == 0 || !q.certDirty {
		// Nothing to certify, or nothing relevant changed since the last
		// scan: skipping is behaviour-identical (a yield-less scan moves no
		// statistics).
		return buf
	}
	return q.scan(buf)
}

// scan is TakeCertifiable's examination of the woken candidates.
func (q *Queue) scan(buf []CertifiedLoad) []CertifiedLoad {
	q.certDirty = false
	out := buf
	q.hitStamp = q.hitStamp[:0]
	for _, k := range q.certWake {
		s, op := q.opSlot(k)
		if s < 0 || !q.certWoken[s].Test(op) {
			continue // left the window, or listed twice
		}
		q.certWoken[s].Clear(op)
		q.work.CertVisits++
		if !q.issued[s].Test(op) {
			continue // woken again by its issue
		}
		f := s*opStride + op
		laddr, lsize := q.addr[f], int(q.size[f])
		if b := q.certBlocker(f, laddr, lsize); b >= 0 {
			q.waitOn(waitCert, b, f)
			continue
		}
		v, _ := q.reconstruct(k, laddr, lsize)
		if v != q.data[f] {
			panic("lsq: certification value mismatch for " + k.String() + " (missed violation)")
		}
		q.certified[s].Set(op)
		out = append(out, CertifiedLoad{Load: k, Addr: laddr, Value: v})
		q.hitStamp = append(q.hitStamp, q.stamp[f])
	}
	q.certWake = q.certWake[:0]
	q.nCand -= len(q.hitStamp)
	q.work.Certified += int64(len(q.hitStamp))
	sortByStamp(out[len(buf):], q.hitStamp)
	return out
}

// barrier returns block slot s's barrier stores: uncommitted, and address
// not final (not yet committed, executed and live).
func (q *Queue) barrier(s int) bitset.Mask32 {
	return q.stores[s] &^ q.committed[s] &^ (q.addrCom[s] & q.exec[s] &^ q.null[s])
}

// noteBarrier records in barBlocks whether block slot s holds a barrier
// store; every change to the masks barrier reads is followed by it.
func (q *Queue) noteBarrier(s int) {
	if q.barrier(s).Empty() {
		q.barBlocks[s>>6] &^= 1 << (s & 63)
	} else {
		q.barBlocks[s>>6] |= 1 << (s & 63)
	}
}

// lastBarrierBlock returns the window position of the youngest block before
// position l that holds a barrier store, or -1 when none does.  It scans
// the ring as at most two contiguous runs of slots, a word at a time.
func (q *Queue) lastBarrierBlock(l int) int {
	for l > 0 {
		hi := (q.head + l - 1) & q.ringMask() // the slot of position l−1
		lo := max(0, hi-(l-1))
		for w := hi >> 6; w >= lo>>6; w-- {
			m := q.barBlocks[w]
			if w == hi>>6 {
				m &= ^uint64(0) >> (63 - hi&63)
			}
			if w == lo>>6 {
				m &^= 1<<(lo&63) - 1
			}
			if m != 0 {
				return l - 1 - (hi - (w<<6 + 63 - bits.LeadingZeros64(m)))
			}
		}
		l -= hi - lo + 1
	}
	return -1
}

// certBlocker returns the flat index of a store that keeps the load at flat
// index f, reading [addr, addr+size), from certifying, or -1 when none does.
func (q *Queue) certBlocker(f int, addr uint64, size int) int {
	s, op := f/opStride, f%opStride
	if bar := q.barrier(s).Below(op); !bar.Empty() {
		return s*opStride + bar.Max()
	}
	if p := q.lastBarrierBlock((s - q.head) & q.ringMask()); p >= 0 {
		bs := (q.head + p) & q.ringMask()
		return bs*opStride + q.barrier(bs).Max()
	}
	// Every uncommitted store older than the load is address-final, so
	// filed in the store index; the first uncommitted aliasing one older
	// than the load in a chain is the chain's youngest.
	kAge := q.age(f)
	youngest, youngestAge := -1, -1
	w0, w1 := opWords(addr, size)
	for w := w0; ; w = w1 {
		for n := q.storeIdx.chain(w); n != 0; {
			fs, match, next := q.nodeOp(n, w)
			n = next
			q.work.CertVisits++
			a := q.age(fs)
			if a > kAge {
				continue
			}
			if a <= youngestAge {
				break
			}
			if match && !q.committed[fs/opStride].Test(fs%opStride) && overlap(q.addr[fs], int(q.size[fs]), addr, size) {
				youngest, youngestAge = fs, a
				break
			}
		}
		if w == w1 {
			return youngest
		}
	}
}

// sortByStamp orders a scan's hits by arrival stamp (insertion sort: most
// candidates are woken on arrival, so a scan finds them nearly in order).
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
