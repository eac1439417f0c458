package lsq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
)

// refOlderStoresSafe is the per-candidate certification rule TakeCertifiable
// must agree with, kept as the reference the differential test compares
// against: no store older than k may still change the load's value — each
// is committed, or has a final, live address that does not overlap the
// load.  It walks every older block for every candidate.
func refOlderStoresSafe(q *Queue, k core.DynRef, laddr uint64, lsize int) bool {
	base := q.seqs[q.head]
	for l := int64(0); ; l++ {
		bseq := base + l
		if bseq > k.Seq || l >= int64(q.n) {
			return true
		}
		s := (q.head + int(l)) & q.ringMask()
		cand := q.stores[s] &^ q.committed[s]
		if bseq == k.Seq {
			cand = cand.Below(int(k.LSID))
		}
		if cand.Empty() {
			continue
		}
		safeAddr := q.addrCom[s] & q.exec[s] &^ q.null[s]
		if !(cand &^ safeAddr).Empty() {
			return false
		}
		fb := s * opStride
		for m := cand; !m.Empty(); {
			i := m.Min()
			m.Clear(i)
			if overlap(q.addr[fb+i], int(q.size[fb+i]), laddr, lsize) {
				return false
			}
		}
	}
}

// refCertifiable returns what a scan must certify, in candidate arrival
// order, without mutating the queue.
func refCertifiable(q *Queue, cands []core.DynRef) []CertifiedLoad {
	var out []CertifiedLoad
	for _, k := range cands {
		s, op := q.opSlot(k)
		if s < 0 || q.certified[s].Test(op) || !q.issued[s].Test(op) {
			continue
		}
		f := s*opStride + op
		laddr, lsize := q.addr[f], int(q.size[f])
		if !refOlderStoresSafe(q, k, laddr, lsize) {
			continue
		}
		v, _ := q.reconstruct(k, laddr, lsize)
		out = append(out, CertifiedLoad{Load: k, Addr: laddr, Value: v})
	}
	return out
}

// liveCandidates recounts inputsCom &^ certified over the resident blocks.
func liveCandidates(q *Queue) int {
	n := 0
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		n += (q.inputsCom[s] &^ q.certified[s]).Count()
	}
	return n
}

// certDriver applies random protocol-respecting operations to a queue and
// mirrors the candidate list in arrival order for the reference.
type certDriver struct {
	t         *testing.T
	q         *Queue
	rng       *rand.Rand
	maxBlocks int
	next      int64 // next block sequence to register
	now       int64 // advanced past every miss, so no load parks on MSHRs
	cands     []core.DynRef
	scans     int
	hits      int
}

// randAddr mixes a dense region (frequent true aliases, partial overlaps)
// with a sparse one (address-word filter hits without overlap).
func (d *certDriver) randAddr(size int) uint64 {
	if d.rng.Intn(2) == 0 {
		return 0x100 + uint64(d.rng.Intn(48))
	}
	return 0x1000 + uint64(size)*uint64(d.rng.Intn(1024))
}

// pick returns a random resident op matching want, or ok=false.
func (d *certDriver) pick(want func(s, op int) bool) (k core.DynRef, ok bool) {
	q := d.q
	var keys []core.DynRef
	for l := 0; l < q.n; l++ {
		s := (q.head + l) & q.ringMask()
		for op := 0; op < int(q.nops[s]); op++ {
			if want(s, op) {
				keys = append(keys, core.DynRef{Seq: q.seqs[s], LSID: int8(op)})
			}
		}
	}
	if len(keys) == 0 {
		return core.DynRef{}, false
	}
	return keys[d.rng.Intn(len(keys))], true
}

func (d *certDriver) step() {
	q, rng := d.q, d.rng
	isStore := func(s, op int) bool { return q.stores[s].Test(op) }
	switch r := rng.Intn(100); {
	case r < 8: // map a block
		if q.n >= d.maxBlocks {
			return
		}
		ops := make([]OpInfo, 1+rng.Intn(16))
		for i := range ops {
			// The memory model has byte and doubleword accesses.
			size := 1
			if rng.Intn(2) == 0 {
				size = 8
			}
			ops[i] = OpInfo{LSID: int8(i), IsStore: rng.Intn(3) == 0, Size: size}
		}
		q.RegisterBlock(d.next, ops)
		d.next++
	case r < 30: // store executes (or re-executes)
		k, ok := d.pick(func(s, op int) bool { return isStore(s, op) && !q.committed[s].Test(op) })
		if !ok {
			return
		}
		s, op := q.opSlot(k)
		f := s*opStride + op
		addr := d.randAddr(int(q.size[f]))
		if q.addrCom[s].Test(op) {
			addr = q.addr[f] // a final address never moves
		}
		q.StoreUpdate(k, addr, rng.Int63n(4), 0, rng.Intn(2) == 0, rng.Intn(4) == 0)
	case r < 34: // store predicated off
		k, ok := d.pick(func(s, op int) bool { return isStore(s, op) && !q.committed[s].Test(op) })
		if ok {
			q.StoreNullify(k)
		}
	case r < 44: // store output final
		k, ok := d.pick(func(s, op int) bool {
			return isStore(s, op) && q.exec[s].Test(op) && !q.committed[s].Test(op)
		})
		if ok {
			q.StoreCommitted(k)
		}
	case r < 66: // load executes: any address until its inputs commit
		k, ok := d.pick(func(s, op int) bool {
			return !isStore(s, op) && !(q.inputsCom[s].Test(op) && q.exec[s].Test(op))
		})
		if !ok {
			return
		}
		s, op := q.opSlot(k)
		d.now += 1000
		q.LoadTry(d.now, k, d.randAddr(int(q.size[s*opStride+op])), 0)
	case r < 76: // load inputs commit
		k, ok := d.pick(func(s, op int) bool { return !isStore(s, op) && !q.inputsCom[s].Test(op) })
		if ok {
			q.LoadInputsCommitted(k)
			d.cands = append(d.cands, k)
		}
	case r < 80:
		d.now += 1000
		q.TakeReady(d.now, nil)
	case r < 82: // squash a suffix (possibly empty)
		if q.n == 0 {
			return
		}
		cut := q.seqs[q.head] + int64(rng.Intn(q.n+1))
		q.SquashFrom(cut)
		d.next = cut
		kept := d.cands[:0]
		for _, k := range d.cands {
			if k.Seq < cut {
				kept = append(kept, k)
			}
		}
		d.cands = kept
	case r < 86: // drain the head once its stores are final
		if q.n == 0 {
			return
		}
		s := q.head
		if !(q.stores[s] &^ q.committed[s]).Empty() {
			return
		}
		q.Drain(q.seqs[s])
	default:
		d.certify()
	}
	if got, want := q.nCand, liveCandidates(q); got != want {
		d.t.Fatalf("candidate count %d, recount %d", got, want)
	}
}

// certify runs one scan and checks it against the reference.
func (d *certDriver) certify() {
	q := d.q
	want := refCertifiable(q, d.cands)
	got := q.TakeCertifiable(nil)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		d.t.Fatalf("scan %d: TakeCertifiable\n got %v\nwant %v", d.scans, got, want)
	}
	d.scans++
	d.hits += len(got)
	kept := d.cands[:0]
	for _, k := range d.cands {
		if s, op := q.opSlot(k); s >= 0 && !q.certified[s].Test(op) {
			kept = append(kept, k)
		}
	}
	d.cands = kept
}

// TestCertifyMatchesPerCandidateWalk drives random register / execute /
// nullify / commit / squash / drain sequences and requires every scan to
// certify exactly the loads, values and order the per-candidate reference
// walk would, with the live-candidate count exact after every operation.
func TestCertifyMatchesPerCandidateWalk(t *testing.T) {
	for _, blocks := range []int{8, 32} {
		for _, policy := range []core.IssuePolicy{core.IssueAggressive, core.IssueConservative} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("blocks=%d/%v/seed=%d", blocks, policy, seed), func(t *testing.T) {
					q, m, _ := newQueue(t, policy, nil, nil)
					rng := rand.New(rand.NewSource(seed))
					for a := uint64(0x100); a < 0x140; a += 8 {
						m.Write(a, rng.Int63(), 8)
					}
					d := &certDriver{t: t, q: q, rng: rng, maxBlocks: blocks}
					for i := 0; i < 4000; i++ {
						d.step()
					}
					d.certify()
					if d.hits == 0 {
						t.Fatal("sequence certified nothing; the comparison is vacuous")
					}
					t.Logf("%d yielding scans, %d certifications", d.scans, d.hits)
				})
			}
		}
	}
}

// TestCertificationBarrierInOwnBlock: an address-pending store between two
// loads of one block lets the older load certify and holds the younger one
// (and every younger block) until the store's address is final.
func TestCertificationBarrierInOwnBlock(t *testing.T) {
	q, m, _ := newQueue(t, core.IssueAggressive, nil, nil)
	m.Write(0x100, 7, 8)
	m.Write(0x200, 9, 8)
	regBlock(q, 0, OpInfo{}, OpInfo{IsStore: true}, OpInfo{})
	regBlock(q, 1, OpInfo{})
	for _, k := range []core.DynRef{{Seq: 0, LSID: 0}, {Seq: 0, LSID: 2}, {Seq: 1, LSID: 0}} {
		q.LoadTry(0, k, 0x100, 0)
		q.LoadInputsCommitted(k)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x200, 1, 0, false, false) // address not final
	cs := q.TakeCertifiable(nil)
	if len(cs) != 1 || cs[0].Load != (core.DynRef{Seq: 0, LSID: 0}) || cs[0].Value != 7 {
		t.Fatalf("certified %+v, want only b0.ls0", cs)
	}
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 1}, 0x200, 1, 0, true, false) // final, disjoint, data pending
	cs = q.TakeCertifiable(nil)
	if len(cs) != 2 || cs[0].Load != (core.DynRef{Seq: 0, LSID: 2}) || cs[1].Load != (core.DynRef{Seq: 1, LSID: 0}) {
		t.Fatalf("certified %+v, want b0.ls2 then b1.ls0", cs)
	}
	if q.nCand != 0 {
		t.Errorf("candidate count %d after certifying all", q.nCand)
	}
}

// TestCertificationKeepsArrivalOrder: hits are reported in the order the
// loads became candidates, not in memory order.
func TestCertificationKeepsArrivalOrder(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueAggressive, nil, nil)
	regBlock(q, 0, OpInfo{}, OpInfo{})
	regBlock(q, 1, OpInfo{})
	regBlock(q, 2, OpInfo{}, OpInfo{})
	arrival := []core.DynRef{{Seq: 2, LSID: 1}, {Seq: 0, LSID: 1}, {Seq: 1, LSID: 0}, {Seq: 0, LSID: 0}, {Seq: 2, LSID: 0}}
	for i, k := range arrival {
		q.LoadTry(0, k, uint64(0x100+8*i), 0)
		q.LoadInputsCommitted(k)
	}
	var got []core.DynRef
	for _, c := range q.TakeCertifiable(nil) {
		got = append(got, c.Load)
	}
	if !reflect.DeepEqual(got, arrival) {
		t.Fatalf("certified %v, want arrival order %v", got, arrival)
	}
}

// TestCandidateCountSquashDrain: squashing and draining blocks drop their
// uncertified candidates from the live count, so a scan over an emptied
// window is skipped and nothing left over is reported.
func TestCandidateCountSquashDrain(t *testing.T) {
	q, _, _ := newQueue(t, core.IssueAggressive, nil, nil)
	for seq := int64(0); seq < 4; seq++ {
		regBlock(q, seq, OpInfo{IsStore: true}, OpInfo{}, OpInfo{})
		for lsid := int8(1); lsid <= 2; lsid++ {
			k := core.DynRef{Seq: seq, LSID: lsid}
			q.LoadTry(0, k, 0x100, 0)
			q.LoadInputsCommitted(k)
		}
	}
	if q.nCand != 8 {
		t.Fatalf("candidate count %d, want 8", q.nCand)
	}
	// Block 0's store commits: its two loads certify, block 1 stays behind
	// its own pending store.
	q.StoreUpdate(core.DynRef{Seq: 0, LSID: 0}, 0x300, 1, 0, true, true)
	if cs := q.TakeCertifiable(nil); len(cs) != 2 {
		t.Fatalf("certified %+v, want block 0's loads", cs)
	}
	if q.nCand != 6 {
		t.Fatalf("candidate count %d after certifying 2, want 6", q.nCand)
	}
	q.SquashFrom(2)
	if q.nCand != 2 {
		t.Fatalf("candidate count %d after squashing blocks 2-3, want 2", q.nCand)
	}
	q.Drain(0) // block 0's candidates are certified: nothing to drop
	if q.nCand != 2 {
		t.Fatalf("candidate count %d after draining a certified block, want 2", q.nCand)
	}
	q.StoreUpdate(core.DynRef{Seq: 1, LSID: 0}, 0x300, 1, 0, true, true)
	q.Drain(1) // drops block 1's two uncertified candidates
	if q.nCand != 0 {
		t.Fatalf("candidate count %d after draining block 1, want 0", q.nCand)
	}
	if cs := q.TakeCertifiable(nil); len(cs) != 0 {
		t.Fatalf("scan of an empty window certified %+v", cs)
	}
}

// TestCertifyParkedIssuedLoadAtNewAddress pins what certification does
// with a load that re-executed at a new address while every MSHR was busy:
// it keeps its issued bit and the value it read at the old address, so
// once its inputs commit a scan reconstructs the new address, finds the
// old value and panics with a missed violation.  The differential drivers
// never commit the inputs of such a load.  The simulator was not seen to
// reach this: with one MSHR and a 256-byte direct-mapped L1D, every kernel
// under every scheme certified 15,262 parked, issued candidates, none of
// them at an address other than the one it issued at, because a rejected
// access still fills the L1 line and the retry in the same cycle's
// TakeReady pass, which runs before the scan, hits.
func TestCertifyParkedIssuedLoadAtNewAddress(t *testing.T) {
	hc := cache.DefaultHierConfig()
	hc.MSHRs = 1
	h, err := cache.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.Write(0x1000, 7, 8)
	m.Write(0x9000, 9, 8)
	q := New(Config{Policy: core.IssueAggressive}, m, h, &core.TagSource{}, nil, nil)
	regBlock(q, 0, OpInfo{})
	k := core.DynRef{Seq: 0, LSID: 0}
	if r := q.LoadTry(0, k, 0x1000, 0); r.Deferred || r.Value != 7 {
		t.Fatalf("first execution %+v, want value 7", r)
	}
	// The first miss holds the only MSHR: the re-execution parks.
	if r := q.LoadTry(0, k, 0x9000, 0); r.Reason != DeferMSHR {
		t.Fatalf("re-execution %+v, want an MSHR deferral", r)
	}
	if !q.issued[q.head].Test(0) || !q.parked[q.head].Test(0) || q.data[0] != 7 {
		t.Fatal("the re-executed load should keep its issued bit and old value")
	}
	q.LoadInputsCommitted(k)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "missed violation") {
			t.Fatalf("certification recovered %v, want a missed-violation panic", p)
		}
	}()
	q.TakeCertifiable(nil)
}

// TestLastBarrierBlockMatchesWalk: the bitmap search for the youngest
// barrier block agrees with a walk of the window positions, on rings of
// one to four words, at every head and window size.
func TestLastBarrierBlockMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []int{16, 64, 128, 256} {
		q := &Queue{seqs: make([]int64, c), barBlocks: make([]uint64, (c+63)/64)}
		for trial := 0; trial < 200; trial++ {
			for w := range q.barBlocks {
				q.barBlocks[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			q.head, q.n = rng.Intn(c), 1+rng.Intn(c)
			for l := 0; l <= q.n; l++ {
				want := -1
				for p := l - 1; p >= 0; p-- {
					if s := (q.head + p) & (c - 1); q.barBlocks[s>>6]&(1<<(s&63)) != 0 {
						want = p
						break
					}
				}
				if got := q.lastBarrierBlock(l); got != want {
					t.Fatalf("cap %d head %d: lastBarrierBlock(%d) = %d, want %d", c, q.head, l, got, want)
				}
			}
		}
	}
}
