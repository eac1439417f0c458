package lsq

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// refReconstruct is the forwarding walk reconstruct must agree with, kept
// as the reference the differential test compares against: every block
// from the load's own back to the window head is searched, youngest store
// first, with no index.
func refReconstruct(q *Queue, k core.DynRef, addr uint64, size int) (val int64, forwarded int) {
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
				ba := addr + uint64(i)
				if !have[i] && ba >= saddr && ba < saddr+uint64(ssize) {
					bytes[i] = byte(sdata >> (8 * (ba - saddr)))
					have[i] = true
					remaining--
				}
			}
		}
	}
	var mv uint64
	if remaining > 0 {
		mv = q.mem.Uint(addr, size)
	}
	var v uint64
	for i := 0; i < size; i++ {
		bv := bytes[i]
		if !have[i] {
			bv = byte(mv >> (8 * i))
		}
		v |= uint64(bv) << (8 * i)
	}
	return int64(v), size - remaining
}

// refRecheckHits is the violation re-check's candidate walk the load word
// index must agree with, kept as the reference: every younger block is
// searched, with no index or summary, for issued loads overlapping
// [addr, addr+size), listed by age in ascending (seq, LSID) order.
func refRecheckHits(q *Queue, store core.DynRef, addr uint64, size int) []int32 {
	var hits []int32
	if size == 0 || q.n == 0 {
		return hits
	}
	base := q.seqs[q.head]
	for l := max(store.Seq-base, 0); l < int64(q.n); l++ {
		s := (q.head + int(l)) & q.ringMask()
		cands := q.issued[s] &^ q.stores[s]
		if base+l == store.Seq {
			cands = cands.Above(int(store.LSID))
		}
		for m := cands; !m.Empty(); m &= m - 1 {
			i := m.Min()
			f := s*opStride + i
			if overlap(q.addr[f], int(q.size[f]), addr, size) {
				hits = append(hits, int32(l*opStride+int64(i)))
			}
		}
	}
	return hits
}

// refTwin runs rescanning versions of the event-driven queries on a second
// queue, kept as the reference the differential test compares against:
//   - the deferred list as a plain list of parked loads: a load joins its
//     tail when it is deferred while not on it and leaves when it issues,
//     drains or is squashed.  A pass re-runs the policy check for every
//     listed load, in list order, and retries the loads it lets go.  A
//     policy deferral counts once per store the load is deferred on, so a
//     pass counts one for a load whose store executed but whose policy
//     now names another; a pass is due when some listed load would be
//     retried or so counted;
//   - certification as the per-candidate walk (refCertifiable) over every
//     candidate in arrival order, behind the same certDirty gate.
//
// Everything else is the queue's own code, whose wake-up bookkeeping the
// twin never consults.
type refTwin struct {
	*Queue
	deferred []twinEntry
	counts   map[string]int // rare states reached, for the vacuity check
}

// twinEntry is a parked load of the reference list and the store its last
// policy deferral named (NoDynRef after an MSHR deferral).
type twinEntry struct {
	k, on core.DynRef
}

// deferredOn returns the store the policy defers load k on, or
// NoDynRef when it lets the load go.
func (r *refTwin) deferredOn(k core.DynRef) core.DynRef {
	s, op := r.opSlot(k)
	if w, wait := r.deferOn(k, s, op); wait {
		return r.keyAt(w)
	}
	return core.NoDynRef
}

// note files the outcome of an issue attempt for load k on the list.
func (r *refTwin) note(k core.DynRef, res LoadResult) {
	i := slices.IndexFunc(r.deferred, func(e twinEntry) bool { return e.k == k })
	switch {
	case !res.Deferred:
		if i >= 0 {
			r.deferred = slices.Delete(r.deferred, i, i+1)
		}
		return
	case i < 0:
		if s, op := r.opSlot(k); r.issued[s].Test(op) {
			r.counts["parked again after issuing"]++
		}
		r.deferred = append(r.deferred, twinEntry{k: k})
		i = len(r.deferred) - 1
	}
	r.deferred[i].on = core.NoDynRef
	if res.Reason == DeferPolicy {
		r.deferred[i].on = r.deferredOn(k)
	}
}

func (r *refTwin) LoadTry(now int64, k core.DynRef, addr uint64, tag core.Tag) LoadResult {
	res := r.Queue.LoadTry(now, k, addr, tag)
	r.note(k, res)
	return res
}

func (r *refTwin) HasReadyWork() bool {
	for _, e := range r.deferred {
		if w := r.deferredOn(e.k); !w.Valid() || w != e.on {
			return true
		}
	}
	return false
}

func (r *refTwin) TakeReady(now int64) []ReadyLoad {
	if !r.HasReadyWork() {
		return nil
	}
	var out []ReadyLoad
	for _, e := range slices.Clone(r.deferred) {
		if w := r.deferredOn(e.k); w == e.on && w.Valid() {
			continue // still deferred on the same store
		} else if w.Valid() {
			r.Stats.DeferredPolicy++
			r.counts["deferred on a later store"]++
			r.note(e.k, LoadResult{Deferred: true, Reason: DeferPolicy})
			continue
		}
		s, op := r.opSlot(e.k)
		res := r.tryIssue(now, e.k, s, op)
		r.note(e.k, res)
		if !res.Deferred {
			out = append(out, ReadyLoad{Load: e.k, Addr: r.addr[s*opStride+op], Res: res})
		}
	}
	return out
}

func (r *refTwin) TakeCertifiable() []CertifiedLoad {
	if r.nCand == 0 || !r.certDirty {
		return nil
	}
	r.certDirty = false
	var cands []core.DynRef
	for l := 0; l < r.n; l++ {
		s := (r.head + l) & r.ringMask()
		for m := r.inputsCom[s] &^ r.certified[s]; !m.Empty(); m &= m - 1 {
			cands = append(cands, core.DynRef{Seq: r.seqs[s], LSID: int8(m.Min())})
		}
	}
	slices.SortFunc(cands, func(a, b core.DynRef) int {
		sa, oa := r.opSlot(a)
		sb, ob := r.opSlot(b)
		return cmp.Compare(r.stamp[sa*opStride+oa], r.stamp[sb*opStride+ob])
	})
	out := refCertifiable(r.Queue, cands)
	for _, c := range out {
		s, op := r.opSlot(c.Load)
		r.certified[s].Set(op)
		r.nCand--
	}
	return out
}

func (r *refTwin) SquashFrom(seq int64) {
	r.Queue.SquashFrom(seq)
	r.deferred = slices.DeleteFunc(r.deferred, func(e twinEntry) bool { return e.k.Seq >= seq })
}

func (r *refTwin) Drain(seq int64) int {
	n := len(r.deferred)
	r.deferred = slices.DeleteFunc(r.deferred, func(e twinEntry) bool { return e.k.Seq == seq })
	if len(r.deferred) < n {
		r.counts["drained while parked"]++
	}
	return r.Queue.Drain(seq)
}

// pairDriver applies one random protocol-respecting operation stream to
// the queue under test and to a reference twin, and requires both to
// return the same violations, load results, ready and certified lists,
// readiness and statistics after every step, the re-check's index lookup
// to match the full walk, and every wait list and word index to hold
// exactly what it should.  Unlike the certification driver it embeds, it
// advances time slowly, so misses exhaust the MSHRs.
type pairDriver struct {
	certDriver
	ref      *refTwin
	policy   core.IssuePolicy
	counts   map[string]int // events seen, for the vacuity check
	maxDepth int
}

func newPairDriver(t *testing.T, policy core.IssuePolicy, blocks int, seed int64) *pairDriver {
	d := &pairDriver{
		certDriver: certDriver{t: t, rng: rand.New(rand.NewSource(seed)), maxBlocks: blocks},
		policy:     policy,
		counts:     make(map[string]int),
	}
	build := func() *Queue {
		hc := cache.DefaultHierConfig()
		hc.MSHRs = 2
		h, err := cache.NewHierarchy(hc)
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New()
		for a := uint64(0x100); a < 0x140; a += 8 {
			m.Write(a, int64(a*0x9e3779b97f4a7c15), 8)
		}
		var ss *predictor.StoreSet
		if policy == core.IssueStoreSet {
			ss = predictor.MustNew(predictor.Config{SSITSize: 64, ClearInterval: 500})
		}
		return New(Config{Policy: policy}, m, h, &core.TagSource{}, ss, nil)
	}
	d.q, d.ref = build(), &refTwin{Queue: build(), counts: d.counts}
	return d
}

// wideAddr mixes a dense region (true aliases, partial overlaps) with a
// sparse one wider than the L1, so loads keep missing and the MSHRs fill.
func (d *pairDriver) wideAddr(size int) uint64 {
	if d.rng.Intn(2) == 0 {
		return 0x100 + uint64(d.rng.Intn(48))
	}
	return 0x10000 + uint64(size)*uint64(d.rng.Intn(1<<15))
}

// storeAddr picks a store address: a third of the time the current
// address of some executed load, so sparse addresses alias too.
func (d *pairDriver) storeAddr(size int) uint64 {
	q := d.q
	if d.rng.Intn(3) == 0 {
		if k, ok := d.pick(func(s, op int) bool { return !q.stores[s].Test(op) && q.exec[s].Test(op) }); ok {
			s, op := q.opSlot(k)
			return q.addr[s*opStride+op]
		}
	}
	return d.wideAddr(size)
}

// tick advances time mostly by a cycle or two, so outstanding misses keep
// the two MSHRs busy, and now and then far enough to free them.
func (d *pairDriver) tick() {
	if d.rng.Intn(8) == 0 {
		d.now += 500
	} else {
		d.now += int64(d.rng.Intn(3))
	}
}

func (d *pairDriver) same(what string, got, want any) {
	d.t.Helper()
	if !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s\n got %+v\nwant %+v", what, got, want)
	}
}

func (d *pairDriver) register() {
	q, rng := d.q, d.rng
	if q.n >= d.maxBlocks {
		return
	}
	seq := d.next
	d.next++
	ops := make([]OpInfo, 1+rng.Intn(16))
	deps := make([]core.DynRef, len(ops))
	for i := range ops {
		size := 1
		if rng.Intn(2) == 0 {
			size = 8
		}
		ops[i] = OpInfo{LSID: int8(i), IsStore: rng.Intn(3) == 0, Size: size, PC: predictor.MakePC(rng.Intn(3), i)}
		deps[i] = core.NoDynRef
		if ops[i].IsStore || rng.Intn(2) == 0 {
			continue
		}
		// An oracle dependence on an older store of the window or of this
		// block, now and then on a younger op (which the policy ignores).
		var stores []core.DynRef
		for j := 0; j < i; j++ {
			if ops[j].IsStore {
				stores = append(stores, core.DynRef{Seq: seq, LSID: int8(j)})
			}
		}
		if w, ok := d.pick(func(s, op int) bool { return q.stores[s].Test(op) }); ok {
			stores = append(stores, w)
		}
		if rng.Intn(8) == 0 {
			stores = append(stores, core.DynRef{Seq: seq + 1, LSID: 0})
		}
		if len(stores) > 0 {
			deps[i] = stores[rng.Intn(len(stores))]
		}
	}
	for _, x := range []*Queue{q, d.ref.Queue} {
		x.RegisterBlock(seq, ops)
		if d.policy != core.IssueOracle {
			continue
		}
		// Capture each load's dependence as RegisterBlock does from the
		// emulator's oracle table.
		s := x.slot(seq)
		for i, w := range deps {
			if w.Valid() {
				x.waitFor[s*opStride+i] = w
				x.waitValid[s].Set(i)
			}
		}
	}
}

func (d *pairDriver) squash(cut int64) {
	d.q.SquashFrom(cut)
	d.ref.SquashFrom(cut)
	d.next = cut
}

func (d *pairDriver) step() {
	q, rng := d.q, d.rng
	isStore := func(s, op int) bool { return q.stores[s].Test(op) }
	switch r := rng.Intn(100); {
	case r < 12:
		d.register()
	case r < 30: // store executes or re-executes, possibly at a new address
		k, ok := d.pick(func(s, op int) bool { return isStore(s, op) && !q.committed[s].Test(op) })
		if !ok {
			return
		}
		s, op := q.opSlot(k)
		f := s*opStride + op
		addr := d.storeAddr(int(q.size[f]))
		if q.addrCom[s].Test(op) {
			addr = q.addr[f] // a final address never moves
		}
		data, addrCom, dataCom := rng.Int63n(4), rng.Intn(2) == 0, rng.Intn(4) == 0
		d.sameHits(k, addr, int(q.size[f]))
		got := append([]Violation(nil), q.StoreUpdate(k, addr, data, 0, addrCom, dataCom)...)
		want := d.ref.StoreUpdate(k, addr, data, 0, addrCom, dataCom)
		d.same("StoreUpdate "+k.String()+" violations", got, append([]Violation(nil), want...))
		d.counts["violations"] += len(got)
	case r < 33:
		k, ok := d.pick(func(s, op int) bool { return isStore(s, op) && !q.committed[s].Test(op) })
		if !ok {
			return
		}
		got := append([]Violation(nil), q.StoreNullify(k)...)
		want := append([]Violation(nil), d.ref.StoreNullify(k)...)
		d.same("StoreNullify "+k.String()+" violations", got, want)
		d.counts["violations"] += len(got)
	case r < 41:
		k, ok := d.pick(func(s, op int) bool {
			return isStore(s, op) && q.exec[s].Test(op) && !q.committed[s].Test(op)
		})
		if ok {
			q.StoreCommitted(k)
			d.ref.StoreCommitted(k)
		}
	case r < 62: // load executes or re-executes until its inputs commit
		k, ok := d.pick(func(s, op int) bool {
			return !isStore(s, op) && !(q.inputsCom[s].Test(op) && q.exec[s].Test(op))
		})
		if !ok {
			return
		}
		s, op := q.opSlot(k)
		size := int(q.size[s*opStride+op])
		addr := d.wideAddr(size)
		d.tick()
		got := q.LoadTry(d.now, k, addr, 0)
		d.same("LoadTry "+k.String(), got, d.ref.LoadTry(d.now, k, addr, 0))
		if got.Reason == DeferMSHR {
			d.counts["mshr"]++
		}
	case r < 70:
		// Not for a load parked with its issued bit set: certification
		// would see its new address with its old value
		// (TestCertifyParkedIssuedLoadAtNewAddress pins that).
		k, ok := d.pick(func(s, op int) bool {
			return !isStore(s, op) && !q.inputsCom[s].Test(op) && !(q.parked[s].Test(op) && q.issued[s].Test(op))
		})
		if ok {
			q.LoadInputsCommitted(k)
			d.ref.LoadInputsCommitted(k)
		}
	case r < 81:
		d.tick()
		got := q.TakeReady(d.now, nil)
		d.same("TakeReady", got, d.ref.TakeReady(d.now))
		d.counts["ready"] += len(got)
	case r < 82: // a violating load is flushed: guard it and squash its block
		k, ok := d.pick(func(s, op int) bool { return !isStore(s, op) && q.issued[s].Test(op) })
		if !ok {
			return
		}
		q.GuardLoad(k)
		d.ref.GuardLoad(k)
		d.squash(k.Seq)
		d.counts["guards"]++
	case r < 83:
		if q.n > 0 && rng.Intn(2) == 0 {
			d.squash(q.seqs[q.head] + int64(rng.Intn(q.n+1)))
		}
	case r < 86: // drain the head once its stores are final
		if q.n == 0 || !(q.stores[q.head] &^ q.committed[q.head]).Empty() {
			return
		}
		seq := q.seqs[q.head]
		d.same("Drain writes", q.Drain(seq), d.ref.Drain(seq))
	default:
		got := q.TakeCertifiable(nil)
		d.same("TakeCertifiable", got, d.ref.TakeCertifiable())
		d.counts["certified"] += len(got)
	}
	d.same("Stats", q.Stats, d.ref.Stats)
	d.same("HasReadyWork", q.HasReadyWork(), d.ref.HasReadyWork())
	if q.ss != nil {
		d.same("store-set state", *q.ss, *d.ref.ss)
	}
	d.checkForwarding()
	d.checkLinks()
	d.maxDepth = max(d.maxDepth, q.n)
}

// checkForwarding requires the forwarding walk to agree with the
// reference walk for every resident load at its current address, and the
// re-check's index lookup to agree with the full walk at every executed
// store's address.
func (d *pairDriver) checkForwarding() {
	q := d.q
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		for m := q.exec[s]; !m.Empty(); m &= m - 1 {
			op := m.Min()
			k := core.DynRef{Seq: q.seqs[s], LSID: int8(op)}
			f := s*opStride + op
			addr, size := q.addr[f], int(q.size[f])
			if q.stores[s].Test(op) {
				d.sameHits(k, addr, size)
				continue
			}
			gv, gf := q.reconstruct(k, addr, size)
			wv, wf := refReconstruct(q, k, addr, size)
			if gv != wv || gf != wf {
				d.t.Fatalf("reconstruct %s = (%d, %d bytes), reference (%d, %d bytes)", k, gv, gf, wv, wf)
			}
		}
	}
}

// sameHits requires the load word index to yield exactly the loads the
// full walk finds for a re-check of [addr, addr+size) by store k.
func (d *pairDriver) sameHits(k core.DynRef, addr uint64, size int) {
	d.t.Helper()
	got := slices.Clone(d.q.recheckHits(k, addr, size))
	if want := refRecheckHits(d.q, k, addr, size); !slices.Equal(got, want) {
		d.t.Fatalf("re-check of %#x+%d by %s: index %v, walk %v", addr, size, k, got, want)
	}
}

// checkLinks requires the wake-up structures to hold exactly what they
// should: each word index every member op under each of its words, youngest
// first, and nothing else; each store's wait lists only loads that wait on
// it, and only while it can still lift their wait; every certification
// candidate woken, waiting on a store, or waiting for its own issue; every
// parked load either waiting on a store or active, each active load listed
// and counted; and the parked loads, in park order, as the reference list
// holds them.
func (d *pairDriver) checkLinks() {
	q := d.q
	d.checkIndex("load", &q.loadIdx, func(s, op int) bool { return !q.stores[s].Test(op) && q.exec[s].Test(op) })
	d.checkIndex("store", &q.storeIdx, func(s, op int) bool {
		return q.stores[s].Test(op) && q.exec[s].Test(op) && !q.null[s].Test(op)
	})
	waiting, linked, active := 0, 0, 0
	var ents []parkEntry
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		for op := 0; op < int(q.nops[s]); op++ {
			f := s*opStride + op
			k := core.DynRef{Seq: q.seqs[s], LSID: int8(op)}
			if q.stores[s].Test(op) {
				for kind, live := range []bool{!q.exec[s].Test(op), !q.committed[s].Test(op)} {
					prev := int32(f + 1)
					for n := q.wait[f][kind].next; n != 0; n = q.wait[n-1][kind].next {
						if !live {
							d.t.Fatalf("%s has wait list %d after it can no longer block", k, kind)
						}
						fl := int(n - 1)
						if q.wait[fl][kind].prev != prev {
							d.t.Fatalf("wait list %d of %s: broken back link at %s", kind, k, q.keyAt(fl))
						}
						prev = n
						ls, lop := fl/opStride, fl%opStride
						if kind == int(waitIssue) && !q.waiting[ls].Test(lop) ||
							kind == int(waitCert) && (!q.inputsCom[ls].Test(lop) || q.certified[ls].Test(lop) || q.certWoken[ls].Test(lop) || !q.issued[ls].Test(lop)) {
							d.t.Fatalf("%s on wait list %d of %s in the wrong state", q.keyAt(fl), kind, k)
						}
						if kind == int(waitIssue) {
							waiting++
						} else {
							linked++
						}
					}
				}
				continue
			}
			if q.waiting[s].Test(op) {
				waiting--
			}
			if q.inputsCom[s].Test(op) && !q.certified[s].Test(op) && q.wait[f][waitCert].prev != 0 {
				linked--
			}
			if q.parked[s].Test(op) != (q.waiting[s].Test(op) != q.active[s].Test(op)) {
				d.t.Fatalf("%s: parked %v, waiting %v, active %v", k, q.parked[s].Test(op), q.waiting[s].Test(op), q.active[s].Test(op))
			}
			if q.active[s].Test(op) {
				active++
				if !slices.Contains(q.activeList, k) {
					d.t.Fatalf("active load %s missing from the active list", k)
				}
			}
			if q.parked[s].Test(op) {
				ents = append(ents, parkEntry{k, q.ppos[f]})
			}
		}
	}
	if waiting != 0 || linked != 0 {
		d.t.Fatalf("wait lists hold %d loads more than are waiting, %d more than are linked", waiting, linked)
	}
	if active != q.nActive {
		d.t.Fatalf("%d loads active, counted %d", active, q.nActive)
	}
	slices.SortFunc(ents, func(a, b parkEntry) int { return cmp.Compare(a.pos, b.pos) })
	var got, want []core.DynRef
	for _, e := range ents {
		got = append(got, e.k)
	}
	for _, e := range d.ref.deferred {
		want = append(want, e.k)
	}
	d.same("parked loads in park order", got, want)
}

// checkIndex requires x to file exactly the resident ops member reports,
// each under every word its byte range touches, with chains in bucket
// order, youngest first, and back links intact.
func (d *pairDriver) checkIndex(name string, x *wordIndex, member func(s, op int) bool) {
	q := d.q
	filed := 0
	for b, h := range x.heads {
		prev := -int32(b + 1)
		for n := h; n != 0; {
			f := nodeFlat(n)
			s, op := f/opStride, f%opStride
			if (s-q.head)&q.ringMask() >= q.n || op >= int(q.nops[s]) || !member(s, op) {
				d.t.Fatalf("%s index files flat op %d, not a member", name, f)
			}
			k := q.keyAt(f)
			w0, w1 := opWords(q.addr[f], int(q.size[f]))
			w := w0
			if n&1 == 1 {
				w = w1
			}
			lk := q.word[f][n&1]
			if x.bucket(w) != b || lk.prev != prev || prev > 0 && q.age(nodeFlat(prev)) < q.age(f) {
				d.t.Fatalf("%s index: %s misfiled in bucket %d", name, k, b)
			}
			prev, n = n, lk.next
			filed++
		}
	}
	want := 0
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		for op := 0; op < int(q.nops[s]); op++ {
			if member(s, op) {
				f := s*opStride + op
				if w0, w1 := opWords(q.addr[f], int(q.size[f])); w0 != w1 {
					want++
				}
				want++
			}
		}
	}
	if filed != want {
		d.t.Fatalf("%s index files %d nodes, want %d", name, filed, want)
	}
}

// TestSearchesMatchUnfilteredReference: the indexed violation re-check,
// the indexed forwarding walk, the wake-up passes over parked loads and
// the wake-up certification scans behave exactly like the rescanning
// searches they replaced, under every issue policy, with re-executing
// loads, exhausted MSHRs, guarded replays, squashes and drains.
func TestSearchesMatchUnfilteredReference(t *testing.T) {
	policies := []core.IssuePolicy{core.IssueAggressive, core.IssueConservative, core.IssueStoreSet, core.IssueOracle}
	seen := make(map[string]int)
	for _, blocks := range []int{8, 32} {
		for _, policy := range policies {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("blocks=%d/%v/seed=%d", blocks, policy, seed), func(t *testing.T) {
					d := newPairDriver(t, policy, blocks, seed)
					for i := 0; i < 5000; i++ {
						d.step()
					}
					for _, c := range []string{"violations", "ready", "certified", "mshr", "guards"} {
						if d.counts[c] == 0 {
							t.Errorf("no %s in the sequence; the comparison is vacuous", c)
						}
					}
					if policy != core.IssueAggressive && d.q.Stats.DeferredPolicy == 0 {
						t.Error("no policy deferral in the sequence; the comparison is vacuous")
					}
					if d.maxDepth < blocks {
						t.Errorf("window reached %d blocks, want %d", d.maxDepth, blocks)
					}
					t.Logf("%v", d.counts)
					for c, n := range d.counts {
						seen[c] += n
					}
				})
			}
		}
	}
	// Rare states each sequence need not reach, but the matrix must: a
	// load that parks again after issuing, a pass that finds a woken load
	// deferred on a later store, and a block drained while a load of it
	// was parked.
	for _, c := range []string{"parked again after issuing", "deferred on a later store", "drained while parked"} {
		if seen[c] == 0 {
			t.Errorf("no %s in any sequence; the comparison is vacuous", c)
		}
	}
}

// TestViolatingStoreUpdateAllocatesNothing: once warmed, a store update
// that violates a load in each of 31 younger blocks returns the queue's
// scratch list and allocates nothing.
func TestViolatingStoreUpdateAllocatesNothing(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueAggressive, nil, nil)
	regBlock(q, 0, OpInfo{IsStore: true})
	for seq := int64(1); seq < 32; seq++ {
		regBlock(q, seq, OpInfo{})
		q.LoadTry(0, core.DynRef{Seq: seq, LSID: 0}, 0x100, 0)
	}
	data := int64(0)
	update := func() {
		data ^= 1
		if vs := q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x100, data, 0, false, false); len(vs) != 31 {
			t.Fatalf("%d violations, want 31", len(vs))
		}
	}
	update()
	if allocs := testing.AllocsPerRun(100, update); allocs != 0 {
		t.Errorf("violating StoreUpdate allocates %.1f times per call, want 0", allocs)
	}
}

// TestWakeUpCycleAllocatesNothing: once warmed, a block whose load parks
// on an older store, becomes a certification candidate, is woken by the
// store's execution, issues, certifies and drains allocates nothing: the
// wait lists, word indexes and wake lists reuse their storage.
func TestWakeUpCycleAllocatesNothing(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueConservative, nil, nil)
	seq := int64(0)
	ready := make([]ReadyLoad, 0, 4)
	certs := make([]CertifiedLoad, 0, 4)
	cycle := func() {
		regBlock(q, seq, OpInfo{IsStore: true}, OpInfo{})
		st, ld := core.DynRef{Seq: seq, LSID: 0}, core.DynRef{Seq: seq, LSID: 1}
		if r := q.LoadTry(seq, ld, 0x100, 0); r.Reason != DeferPolicy {
			t.Fatalf("load %+v, want a policy deferral", r)
		}
		q.LoadInputsCommitted(ld)
		if certs = q.TakeCertifiable(certs[:0]); len(certs) != 0 {
			t.Fatal("an unissued load certified")
		}
		q.StoreUpdate(st, 0x200, seq, 0, true, true)
		if ready = q.TakeReady(seq, ready[:0]); len(ready) != 1 {
			t.Fatalf("woken pass issued %d loads, want 1", len(ready))
		}
		if certs = q.TakeCertifiable(certs[:0]); len(certs) != 1 {
			t.Fatalf("certified %d loads, want 1", len(certs))
		}
		q.Drain(seq)
		seq++
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("park/wake/certify/drain cycle allocates %.1f times, want 0", allocs)
	}
}
