package lsq

import (
	"repro/internal/core"
	"repro/internal/predictor"
)

// StoreUpdate records a store execution (or re-execution under DSRE: the
// same store arriving again with a possibly different address or data) and
// returns the violations it exposes: younger issued loads whose
// reconstructed value changed.  tag is the wave tag the store executed
// under (zero when un-speculative); violations it exposes carry it as
// StoreTag so forensics can chain wave depths.
func (q *Queue) StoreUpdate(k Key, addr uint64, data int64, tag core.Tag, addrCom, dataCom bool) []Violation {
	s, op := q.opSlot(k)
	if s < 0 || !q.stores[s].Test(op) {
		return nil // stale message for a squashed block
	}
	f := s*opStride + op
	first := !q.exec[s].Test(op)
	oldAddr, oldSize := q.addr[f], int(q.size[f])
	wasLive := q.exec[s].Test(op) && !q.null[s].Test(op)
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
	if first {
		q.Stats.Stores++
		if q.ss != nil {
			q.ss.StoreDone(q.pc[f], predictor.DynRef{Seq: k.Seq, LSID: k.LSID})
		}
	}
	q.dirty = true
	q.certDirty = true

	// Affected range: where the store's bytes used to land plus where they
	// land now.
	size := int(q.size[f])
	var vs []Violation
	vs = q.recheckLoads(k, addr, size, vs)
	if wasLive && (oldAddr != addr || oldSize != size) {
		vs = q.recheckLoads(k, oldAddr, oldSize, vs)
	}
	if len(vs) == 0 && !first {
		q.Stats.SilentStoreHits++
	}
	return vs
}

// StoreNullify records that a predicated store resolved to not execute.
// Loads that had forwarded from a previous (mis-speculated) execution of
// this store must be re-checked.
func (q *Queue) StoreNullify(k Key) []Violation {
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
	if first {
		q.Stats.Stores++
		if q.ss != nil {
			q.ss.StoreDone(q.pc[f], predictor.DynRef{Seq: k.Seq, LSID: k.LSID})
		}
	}
	q.dirty = true
	q.certDirty = true
	if wasLive {
		return q.recheckLoads(k, oldAddr, oldSize, nil)
	}
	return nil
}

// recheckLoads re-reconstructs every younger issued load overlapping
// [addr, addr+size) and emits violations for those whose value changed.
// Candidate loads per block are one mask expression (issued, not a store,
// younger than the store in its own block); the walk touches only set bits
// in ascending (violation-report) order.
func (q *Queue) recheckLoads(store Key, addr uint64, size int, vs []Violation) []Violation {
	if size == 0 {
		return vs
	}
	ss, sop := q.opSlot(store)
	sf := ss*opStride + sop
	storePC, storeTag := q.pc[sf], q.tag[sf]
	base := q.seqs[q.head]
	start := store.Seq - base
	if start < 0 {
		start = 0
	}
	for l := start; l < int64(q.n); l++ {
		s := (q.head + int(l)) & q.ringMask()
		cands := q.issued[s] &^ q.stores[s]
		if base+l == store.Seq {
			cands = cands.Above(int(store.LSID))
		}
		fb := s * opStride
		for m := cands; !m.Empty(); {
			i := m.Min()
			m.Clear(i)
			f := fb + i
			if !overlap(q.addr[f], int(q.size[f]), addr, size) {
				continue
			}
			lk := Key{Seq: base + l, LSID: int8(i)}
			v, _ := q.reconstruct(lk, q.addr[f], int(q.size[f]))
			if v == q.data[f] {
				continue
			}
			if q.certified[s].Test(i) {
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
	}
	return vs
}

// reconstruct assembles the value a load at key sees: for each byte, the
// youngest older live store covering it wins; uncovered bytes come from
// committed memory.  forwarded is the number of bytes supplied by stores.
// The youngest-first walk iterates live-store masks high-bit-first, so
// only executed, non-null stores are ever touched.
func (q *Queue) reconstruct(k Key, addr uint64, size int) (val int64, forwarded int) {
	var bytes [8]byte
	var have [8]bool
	remaining := size

	var base int64
	if q.n > 0 {
		base = q.seqs[q.head]
	}
	top := k.Seq - base
	if top >= int64(q.n) {
		top = int64(q.n) - 1
	}
	// Walk blocks youngest-to-oldest up to the load's block.
	for l := top; l >= 0 && remaining > 0; l-- {
		s := (q.head + int(l)) & q.ringMask()
		live := q.stores[s] & q.exec[s] &^ q.null[s]
		if base+l == k.Seq {
			live = live.Below(int(k.LSID))
		}
		fb := s * opStride
		for m := live; !m.Empty() && remaining > 0; {
			si := m.Max()
			m.Clear(si)
			f := fb + si
			saddr, ssize := q.addr[f], int(q.size[f])
			if !overlap(addr, size, saddr, ssize) {
				continue
			}
			sdata := uint64(q.data[f])
			for i := 0; i < size; i++ {
				if have[i] {
					continue
				}
				ba := addr + uint64(i)
				if ba >= saddr && ba < saddr+uint64(ssize) {
					bytes[i] = byte(sdata >> (8 * (ba - saddr)))
					have[i] = true
					remaining--
				}
			}
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		bv := bytes[i]
		if !have[i] {
			bv = q.mem.ByteAt(addr + uint64(i))
		}
		v |= uint64(bv) << (8 * i)
	}
	return int64(v), size - remaining
}

// StoreCommitted marks a store's output final (its operand inputs are
// committed and it has executed with them, or it is committed-null).  This
// is the memory leg of the commit wave: younger loads may certify once all
// their older stores are committed.
func (q *Queue) StoreCommitted(k Key) {
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
	q.dirty = true
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
		k := Key{Seq: seq, LSID: int8(i)}
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
	// Map iteration order is irrelevant here: deletes are independent.
	for k := range q.guard {
		if k.Seq <= seq {
			delete(q.guard, k)
		}
	}
	q.resident -= int(q.nops[s])
	q.nCand -= (q.inputsCom[s] &^ q.certified[s]).Count()
	q.head = (q.head + 1) & q.ringMask()
	q.n--
	q.dirty = true
	q.certDirty = true
	return writes
}
