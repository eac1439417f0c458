package lsq

import (
	"math/bits"
	"slices"

	"repro/internal/core"
)

// StoreUpdate records a store execution (or re-execution under DSRE: the
// same store arriving again with a possibly different address or data) and
// returns the violations it exposes: younger issued loads whose
// reconstructed value changed.  tag is the wave tag the store executed
// under (zero when un-speculative); violations it exposes carry it as
// StoreTag so forensics can chain wave depths.
//
// The returned slice is owned by the queue and valid only until the next
// StoreUpdate or StoreNullify call; consume it before then.
func (q *Queue) StoreUpdate(k core.DynRef, addr uint64, data int64, tag core.Tag, addrCom, dataCom bool) []Violation {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return nil // a message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	oldAddr, oldSize := q.addr[f], int(q.size[f])
	wasLive := q.exec[s].Test(op) && !q.null[s].Test(op)
	wasFinal := wasLive && q.addrCom[s].Test(op)
	if oldAddr != addr {
		q.unindex(&q.storeIdx, f) // filed under the old address
	}
	q.exec[s].Set(op)
	q.null[s].Clear(op)
	q.addr[f] = addr
	q.data[f] = data
	q.tag[f] = tag
	if addrCom {
		q.addrCom[s].Set(op)
	}
	if dataCom {
		q.dataCom[s].Set(op)
	}
	if q.addrCom[s].Test(op) && q.dataCom[s].Test(op) {
		q.markStoreCommitted(s, op)
	}
	if !q.indexed(f) {
		q.index(&q.storeIdx, f)
	}
	q.noteBarrier(s)
	if first {
		q.storeDone(k, f)
	}
	if oldAddr != addr || !wasFinal && q.addrCom[s].Test(op) {
		// Its waiters see it move or its address become final; new data
		// alone unblocks nothing, and markStoreCommitted wakes them on
		// commit.
		q.wakeCertWaiters(f)
	}
	q.certDirty = true

	// Affected range: where the store's bytes used to land plus where they
	// land now.
	size := int(q.size[f])
	vs := q.recheckLoads(k, addr, size, q.viol[:0])
	if wasLive && (oldAddr != addr || oldSize != size) {
		vs = q.recheckLoads(k, oldAddr, oldSize, vs)
	}
	q.viol = vs
	if len(vs) == 0 && !first {
		q.Stats.SilentStoreHits++
	}
	return vs
}

// storeDone accounts a store's first execution (or nullification): it
// counts the store, retires it from the store-set LFST, and wakes the
// loads parked on it.
func (q *Queue) storeDone(k core.DynRef, f int) {
	q.Stats.Stores++
	if q.ss != nil {
		q.ss.StoreDone(q.pc[f], k)
	}
	q.wakeIssueWaiters(f)
}

// StoreNullify records that a predicated store resolved to not execute.
// Loads that had forwarded from a previous (mis-speculated) execution of
// this store must be re-checked.  The returned slice is owned by the queue,
// as StoreUpdate's is.
func (q *Queue) StoreNullify(k core.DynRef) []Violation {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return nil
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	oldAddr, oldSize := q.addr[f], int(q.size[f])
	wasLive := q.exec[s].Test(op) && !q.null[s].Test(op)
	q.exec[s].Set(op)
	q.null[s].Set(op)
	q.unindex(&q.storeIdx, f)
	q.noteBarrier(s)
	if first {
		q.storeDone(k, f)
	}
	q.certDirty = true
	if !wasLive {
		return nil
	}
	q.viol = q.recheckLoads(k, oldAddr, oldSize, q.viol[:0])
	return q.viol
}

// recheckLoads re-reconstructs every younger issued load overlapping
// [addr, addr+size) and emits violations for those whose value changed,
// in (seq, LSID) order.
func (q *Queue) recheckLoads(store core.DynRef, addr uint64, size int, vs []Violation) []Violation {
	hits := q.recheckHits(store, addr, size)
	if len(hits) == 0 {
		return vs
	}
	ss, sop := q.opSlot(store)
	sf := ss*opStride + sop
	storePC, storeTag := q.pc[sf], q.tag[sf]
	for _, a := range hits {
		f := q.flatAt(int(a))
		lk := q.keyAt(f)
		v, _ := q.reconstruct(lk, q.addr[f], int(q.size[f]))
		if v == q.data[f] {
			continue
		}
		if q.certified[f/opStride].Test(f % opStride) {
			panic("lsq: certified load " + lk.String() + " violated by store " + store.String() + " (unsound certification)")
		}
		q.data[f] = v
		q.tag[f] = q.tags.Next()
		q.Stats.Violations++
		if q.ss != nil {
			q.ss.Violation(q.pc[f], storePC)
		}
		vs = append(vs, Violation{
			Load:     lk,
			Addr:     q.addr[f],
			Value:    v,
			Tag:      q.tag[f],
			LoadPC:   q.pc[f],
			StorePC:  storePC,
			StoreTag: storeTag,
		})
	}
	return vs
}

// recheckHits returns the ages (see age) of the issued loads younger than
// store that overlap [addr, addr+size), ascending.  The load word index
// yields exactly the loads filed under the range's words, youngest first,
// so each chain walk stops at the first load older than the store.
func (q *Queue) recheckHits(store core.DynRef, addr uint64, size int) []int32 {
	hits := q.hits[:0]
	if size == 0 {
		return hits
	}
	q.work.Rechecks++
	ss, sop := q.opSlot(store)
	sAge := q.age(ss*opStride + sop)
	w0, w1 := opWords(addr, size)
	for w := w0; ; w = w1 {
		for n := q.loadIdx.chain(w); n != 0; {
			f, match, next := q.nodeOp(n, w)
			q.work.RecheckVisits++
			a := q.age(f)
			if a < sAge {
				break // the rest are older than the store
			}
			n = next
			if match && q.issued[f/opStride].Test(f%opStride) && overlap(q.addr[f], int(q.size[f]), addr, size) {
				hits = append(hits, int32(a))
			}
		}
		if w == w1 {
			break
		}
	}
	slices.Sort(hits)
	hits = slices.Compact(hits) // a load spanning both words is filed under each
	q.hits = hits
	return hits
}

// reconstruct assembles the value a load at key sees: for each byte, the
// youngest older live store covering it wins; uncovered bytes come from
// committed memory.  forwarded is the number of bytes supplied by stores.
// The store word index files every live store under each word it touches,
// youngest first, so the walk reads the chains of the load's own words
// (one or two), fills each word's bytes from the first older stores that
// cover them, and stops once they are all filled.
func (q *Queue) reconstruct(k core.DynRef, addr uint64, size int) (val int64, forwarded int) {
	var v uint64
	var have uint8 // bytes filled from stores, one bit per byte
	kAge := 0
	if q.n > 0 {
		kAge = int(k.Seq-q.seqs[q.head])*opStride + int(k.LSID)
	}
	w0, w1 := opWords(addr, size)
	for w := w0; ; w = w1 {
		// want: the load's bytes in word w.
		want := uint8(1)<<size - 1
		if lo := int(8 - addr&7); w0 != w1 {
			if w == w0 {
				want &= uint8(1)<<lo - 1
			} else {
				want &^= uint8(1)<<lo - 1
			}
		}
		for n := q.storeIdx.chain(w); n != 0 && have&want != want; {
			fs, match, next := q.nodeOp(n, w)
			n = next
			if !match || q.age(fs) > kAge {
				continue
			}
			saddr, ssize := q.addr[fs], uint64(q.size[fs])
			sdata := uint64(q.data[fs])
			for i := 0; i < size; i++ {
				ba := addr + uint64(i)
				if bit := uint8(1) << i; want&^have&bit != 0 && ba-saddr < ssize {
					v |= uint64(byte(sdata>>(8*(ba-saddr)))) << (8 * i)
					have |= bit
				}
			}
		}
		if w == w1 {
			break
		}
	}
	// Uncovered bytes come from one committed-memory read.
	if all := uint8(1)<<size - 1; have != all {
		mv := q.mem.Uint(addr, size)
		for i := 0; i < size; i++ {
			if have&(1<<i) == 0 {
				v |= uint64(byte(mv>>(8*i))) << (8 * i)
			}
		}
	}
	return int64(v), bits.OnesCount8(have)
}

// StoreCommitted marks a store's output final (its operand inputs are
// committed and it has executed with them, or it is committed-null).  This
// is the memory leg of the commit wave: younger loads may certify once all
// their older stores are committed.
func (q *Queue) StoreCommitted(k core.DynRef) {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return
	}
	q.markStoreCommitted(s, op)
}

func (q *Queue) markStoreCommitted(s, op int) {
	if q.committed[s].Test(op) {
		return
	}
	q.committed[s].Set(op)
	q.addrCom[s].Set(op)
	q.dataCom[s].Set(op)
	q.noteBarrier(s)
	q.wakeCertWaiters(s*opStride + op)
	q.certDirty = true
}

// Drain applies the oldest block's stores to committed memory in LSID
// order, removes the block's entries, and returns the number of memory
// writes performed (for cache-drain accounting by the caller).  Removal is
// O(1): the block ring's head advances; nothing is copied.
func (q *Queue) Drain(seq int64) int {
	s := q.slot(seq)
	if s < 0 {
		return 0
	}
	if s != q.head {
		panic("lsq: drain of non-oldest block")
	}
	writes := 0
	fb := s * opStride
	for m := q.stores[s]; !m.Empty(); {
		i := m.Min()
		m.Clear(i)
		if q.null[s].Test(i) {
			continue
		}
		k := core.DynRef{Seq: seq, LSID: int8(i)}
		if !q.exec[s].Test(i) {
			panic("lsq: drain of unexecuted store " + k.String())
		}
		f := fb + i
		if q.ValidateDrain != nil {
			if err := q.ValidateDrain(k, q.addr[f], q.data[f], int(q.size[f])); err != nil {
				panic(err)
			}
		}
		q.mem.Write(q.addr[f], q.data[f], int(q.size[f]))
		if q.hier != nil {
			q.hier.L1D.Access(q.addr[f], true)
		}
		writes++
	}
	q.guard = slices.DeleteFunc(q.guard, func(k core.DynRef) bool { return k.Seq <= seq })
	for m := q.stores[s] &^ q.committed[s]; !m.Empty(); m &= m - 1 {
		q.wakeCertWaiters(fb + m.Min()) // a committed store woke its own
	}
	q.release(s)
	q.resident -= int(q.nops[s])
	q.nCand -= (q.inputsCom[s] &^ q.certified[s]).Count()
	q.head = (q.head + 1) & q.ringMask()
	q.n--
	q.certDirty = true
	return writes
}
