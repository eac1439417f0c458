package lsq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// refReconstruct is the forwarding walk reconstruct must agree with, kept
// as the reference the differential test compares against: every block
// from the load's own back to the window head is searched, whatever its
// store summary says.
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

// unfilter turns q into the reference for its next operation: with every
// block summary saturated, recheckLoads and reconstruct walk every block
// as the unfiltered searches did, and with no deferral epoch recorded,
// TakeReady re-runs the policy check for every parked load.
func unfilter(q *Queue) {
	for s := range q.lwords {
		q.lwords[s], q.swords[s] = ^uint64(0), ^uint64(0)
	}
	clear(q.deferredAt)
}

// pairDriver applies one random protocol-respecting operation stream to
// the queue under test and to a reference twin that is unfiltered before
// every operation, and requires both to return the same violations, load
// results, ready and certified lists and statistics after every step.
// Unlike the certification driver it embeds, it advances time slowly, so
// misses exhaust the MSHRs.
type pairDriver struct {
	certDriver
	ref      *Queue
	policy   core.IssuePolicy
	words    map[core.DynRef]uint64 // words of every address each op was given
	counts   map[string]int         // events seen, for the vacuity check
	maxDepth int
}

func newPairDriver(t *testing.T, policy core.IssuePolicy, blocks int, seed int64) *pairDriver {
	d := &pairDriver{
		certDriver: certDriver{t: t, rng: rand.New(rand.NewSource(seed)), maxBlocks: blocks},
		policy:     policy,
		words:      make(map[core.DynRef]uint64),
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
	d.q, d.ref = build(), build()
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
		k := core.DynRef{Seq: seq, LSID: int8(i)}
		delete(d.words, k)
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
	for _, x := range []*Queue{q, d.ref} {
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
	unfilter(d.ref)
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
		d.words[k] |= wordBits(addr, int(q.size[f]))
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
		d.words[k] |= wordBits(addr, size)
		got := q.LoadTry(d.now, k, addr, 0)
		d.same("LoadTry "+k.String(), got, d.ref.LoadTry(d.now, k, addr, 0))
		if got.Reason == DeferMSHR {
			d.counts["mshr"]++
		}
	case r < 70:
		// Not for a load parked with its issued bit set: certification
		// would see its new address with its old value.
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
		d.same("TakeReady", got, d.ref.TakeReady(d.now, nil))
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
		d.same("TakeCertifiable", got, d.ref.TakeCertifiable(nil))
		d.counts["certified"] += len(got)
	}
	d.same("Stats", q.Stats, d.ref.Stats)
	if q.ss != nil {
		d.same("store-set state", *q.ss, *d.ref.ss)
	}
	d.checkSummaries()
	d.maxDepth = max(d.maxDepth, q.n)
}

// checkSummaries requires each block's summaries to be exactly the words
// of the addresses its loads and stores were given since registration,
// and the forwarding walk to agree with the reference walk for every
// resident load at its current address.
func (d *pairDriver) checkSummaries() {
	q := d.q
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		var lw, sw uint64
		for op := 0; op < int(q.nops[s]); op++ {
			k := core.DynRef{Seq: q.seqs[s], LSID: int8(op)}
			if q.stores[s].Test(op) {
				sw |= d.words[k]
				continue
			}
			lw |= d.words[k]
			f := s*opStride + op
			if !q.exec[s].Test(op) {
				continue
			}
			addr, size := q.addr[f], int(q.size[f])
			gv, gf := q.reconstruct(k, addr, size)
			wv, wf := refReconstruct(q, k, addr, size)
			if gv != wv || gf != wf {
				d.t.Fatalf("reconstruct %s = (%d, %d bytes), reference (%d, %d bytes)", k, gv, gf, wv, wf)
			}
		}
		if q.lwords[s] != lw || q.swords[s] != sw {
			d.t.Fatalf("block %d summaries loads %#x stores %#x, want %#x %#x", q.seqs[s], q.lwords[s], q.swords[s], lw, sw)
		}
	}
}

// TestSearchesMatchUnfilteredReference: the summary-filtered violation
// re-check and forwarding walk and the epoch-gated re-evaluation of parked
// loads behave exactly like the unfiltered searches, under every issue
// policy, with re-executing loads, exhausted MSHRs, guarded replays,
// squashes and drains.
func TestSearchesMatchUnfilteredReference(t *testing.T) {
	policies := []core.IssuePolicy{core.IssueAggressive, core.IssueConservative, core.IssueStoreSet, core.IssueOracle}
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
				})
			}
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
