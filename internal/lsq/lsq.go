// Package lsq implements the load/store queue of the simulated EDGE
// machine: the structure that gives dataflow execution conventional
// sequential memory semantics (the central difficulty the paper's abstract
// calls out versus single-assignment dataflow machines).
//
// Responsibilities:
//
//   - total memory order: dynamic memory operations are ordered by
//     (block sequence, load/store ID);
//   - store→load forwarding with byte-granularity reconstruction: a load's
//     value is assembled byte-by-byte from the youngest older executed
//     store covering each byte, falling back to committed memory;
//   - load issue policy: conservative, aggressive, store-set-predicted or
//     oracle-directed deferral of loads (the policies the paper compares);
//   - violation detection: whenever a store executes, re-executes with a
//     changed address/data, or nullifies, every younger issued load whose
//     reconstructed value changes is reported for recovery (flush or DSRE);
//   - the memory leg of the commit wave: a load certifies (may send commit
//     tokens) only when its address is final and every older store is
//     committed.
//
// Layout: the queue is a structure-of-arrays window.  Blocks occupy a
// power-of-two ring of slots in ascending-sequence order (sequences are
// contiguous: the simulator registers every mapped block and removes them
// only by committing the head or squashing a suffix), so a block lookup is
// "seq − base" arithmetic, never a map.  Per-op dynamic state lives in one
// bitset.Mask32 per block per predicate (declared-store, executed, null,
// committed, issued, ...) plus flat stride-32 arrays for the word-sized
// fields (addr, data, tag, ...) and the intrusive list links (wait, word).
//
// Event-driven queries: the three queries asked on every event visit only
// the entries whose answer can have changed, whatever the window depth.
//
//   - Parked loads.  A load the issue policy defers waits on one store
//     whose first execution can lift the deferral (deferOn): for
//     store-set and oracle issue the store it was predicted to depend on,
//     for conservative issue and guarded replays the oldest unexecuted
//     older store, and again on the next one if it is woken too early.
//     The load sits on that store's waitIssue list; the store's first
//     execution moves it to the active list, where loads the MSHRs turned
//     away wait as well.  A TakeReady pass retries only active loads.
//   - Certification.  A candidate (inputs committed, not certified) is
//     examined when woken: on arrival, when it issues or its address
//     moves, and when the store it waits on executes at a new address,
//     gets a final address, commits or drains.  An examined candidate that
//     cannot certify waits for its own issue, or on the waitCert list of a
//     store that blocks it: the youngest older barrier store (uncommitted,
//     address not final), else the youngest older uncommitted store that
//     aliases it.  Nothing else can make it certifiable, so a scan that
//     examines only the woken candidates certifies exactly what a walk of
//     every candidate would.
//   - Violation re-check and forwarding.  Every load that has been given an
//     address is filed in an exact word index (loadIdx) under the 8-byte
//     words its byte range touches, from LoadTry, where the address is
//     set: a load that re-executes at a new address while the MSHRs are
//     busy keeps its issued bit, and the re-check must find it at the new
//     address.  A store's re-check walks the chains of its own words only,
//     youngest load first, stopping at the first load older than the
//     store.  storeIdx files every executed, live store until it drains,
//     committed or not, since a committed store still forwards until its
//     bytes reach memory.  A load's forwarding walk reads the chains of
//     its own words youngest store first; certification finds aliasing
//     stores there too, passing over committed ones.
//
// Deferred list: a parked load holds one entry, made when it parks while
// not parked and dropped when it issues, drains or is squashed.  The entry
// keeps the load's park position, so a pass retries its active loads in
// park order, each once.  HasReadyWork reports whether a live load is
// active, and Stats.DeferredPolicy counts one deferral per park decision
// the issue policy makes.
package lsq

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/predictor"
)

// opStride is the per-block op-array stride: the ISA's LSID space.
const opStride = isa.MaxMemOps

// OpInfo declares one memory operation at block map time.
type OpInfo struct {
	LSID    int8
	IsStore bool
	Size    int
	PC      predictor.PC
}

// Violation reports a load whose previously returned value is out of date.
type Violation struct {
	Load    core.DynRef
	Addr    uint64 // the load's address (for D-tile bank routing)
	Value   int64  // corrected value
	Tag     core.Tag
	LoadPC  predictor.PC
	StorePC predictor.PC
	// StoreTag is the wave tag the conflicting store executed under (zero
	// if it ran un-speculatively), so forensics can chain wave depths.
	StoreTag core.Tag
}

// ReadyLoad is a load whose value is (now) available.
type ReadyLoad struct {
	Load core.DynRef
	Addr uint64
	Res  LoadResult
}

// DeferReason says why a load could not issue, for statistics.
type DeferReason int

// Deferral reasons.
const (
	DeferNone DeferReason = iota
	DeferPolicy
	DeferMSHR
)

// Stats counts LSQ events.
type Stats struct {
	Loads           int64
	Stores          int64
	Forwards        int64 // loads fully satisfied by forwarding
	PartialForwards int64 // loads mixing store bytes and memory bytes
	Violations      int64
	SilentStoreHits int64 // store updates that changed no load's value
	DeferredPolicy  int64
	DeferredMSHR    int64
	GuardedLoads    int64
	PeakOccupancy   int
}

// Work counts the entries the queue's event queries visit: a
// deterministic measure of their host cost, kept out of Stats because
// Stats is part of every digested Result and these counts move whenever a
// query's algorithm does.
type Work struct {
	ReadyVisits   int64 // parked loads a TakeReady pass examined
	ReadyIssued   int64 // loads TakeReady issued
	CertVisits    int64 // candidates TakeCertifiable examined
	Certified     int64 // loads TakeCertifiable certified
	RecheckVisits int64 // loads a store's violation re-check examined
	Rechecks      int64 // re-checks: one per byte range a store update or nullify re-checks
}

// Config parameterises the queue.
type Config struct {
	Policy core.IssuePolicy
	// ForwardLatency is the store→load forwarding latency in cycles.
	ForwardLatency int
	// ViolationLatency is the delay before a corrected value is
	// re-broadcast after a violation is detected.
	ViolationLatency int
}

// Queue is the load/store queue.
type Queue struct {
	cfg    Config
	mem    *mem.Memory
	hier   *cache.Hierarchy
	tags   *core.TagSource
	ss     *predictor.StoreSet
	oracle *emu.Oracle

	// Block window: a power-of-two ring of block slots in ascending-
	// sequence order.  head is the physical slot of the oldest block, n
	// the live count; the block with sequence s lives at physical slot
	// (head + (s − seqs[head])) & (cap−1).  Drain advances head (O(1));
	// squash truncates n.
	head int
	n    int

	// Read every cycle, so kept with the window bounds: the live loads on
	// the active list, which the next pass retries.
	nActive int

	// Per-block state, indexed by physical slot.
	seqs []int64
	nops []uint8

	// Per-block LSID occupancy masks — the bitmaps certification and alias
	// search walk.  stores is fixed at registration; the rest track the
	// old per-entry booleans bit for bit.
	stores    []bitset.Mask32 // declared store ops
	exec      []bitset.Mask32 // executed at least once
	null      []bitset.Mask32 // predicated off (stores)
	committed []bitset.Mask32 // store output final
	addrCom   []bitset.Mask32 // store address operand committed
	dataCom   []bitset.Mask32 // store data operand committed
	issued    []bitset.Mask32 // load produced a value
	certified []bitset.Mask32 // load certified (value final)
	inputsCom []bitset.Mask32 // load address operands committed
	parked    []bitset.Mask32 // load on the deferred list
	waitValid []bitset.Mask32 // waitFor captured at registration
	waiting   []bitset.Mask32 // parked load on a store's waitIssue list
	active    []bitset.Mask32 // parked load on the active list
	certWoken []bitset.Mask32 // candidate on the certification wake list

	// Flat per-op fields, stride opStride, indexed slot*opStride + LSID.
	addr    []uint64
	data    []int64 // store data, or the load's last returned value
	tag     []core.Tag
	size    []uint8
	pc      []predictor.PC
	waitFor []core.DynRef
	stamp   []uint64 // certification-candidate arrival order
	// Intrusive list links (see index.go).  A store owns two wait lists
	// of the loads waiting on it, one per waitKind; a load sits on at most
	// one list of each kind.  word files an op in an address-word index
	// under each 8-byte word its byte range touches (one or two).
	wait [][2]link
	word [][2]link
	// ppos is a parked load's park position (see "Deferred list" in the
	// package comment).
	ppos []uint64

	// loadIdx files every load that has been given an address, storeIdx
	// every executed, live store until it drains, each under the words of
	// its current address.
	loadIdx, storeIdx wordIndex

	// viol is the violation list StoreUpdate and StoreNullify return,
	// reused so a violating store allocates nothing.
	viol []Violation
	// hits is recheckLoads' scratch list of the ages of overlapping
	// younger loads.
	hits []int32

	resident int // ops across blocks (occupancy is read every cycle)

	// Deferred list.  nextPos numbers park positions.  activeList holds
	// the loads the next pass retries (woken, or parked on the MSHRs),
	// and may still hold loads that left it since; passBuf is a pass's
	// scratch list.
	nextPos    uint64
	activeList []core.DynRef
	passBuf    []parkEntry

	// certDirty gates TakeCertifiable's scan: a parked certification
	// candidate can only become certifiable when a store commits, executes,
	// nullifies or leaves the window, a load issues, or a new candidate
	// arrives — every such mutation sets it.  A scan that yields nothing has
	// no side effects, so skipping it while the flag is clear is
	// behaviour-identical and avoids a rescan per cycle.
	certDirty bool

	// guard holds dynamic loads that violated and were flushed: their
	// refetched instances (same key) replay conservatively, which is what
	// keeps flush recovery livelock-free when a load conflicts with a
	// store in its own block.  It holds one entry per flushed load whose
	// block has not committed yet, few enough to scan.
	guard []core.DynRef

	// Certification candidates are the resident loads in inputsCom &^
	// certified.  nCand counts them (the scan's early-out); nextStamp
	// numbers arrivals so a scan reports its hits in arrival order.
	// certWake lists the candidates a scan must re-examine; every other
	// candidate waits on its own issue or on a store's waitCert list.
	// barBlocks has a bit per ring slot whose block holds a barrier store
	// (uncommitted, address not final).
	nCand     int
	nextStamp uint64
	certWake  []core.DynRef
	barBlocks []uint64
	hitStamp  []uint64 // arrival stamps of a scan's hits, parallel to its output

	// ValidateDrain, when set (tests), is called for every drained store
	// with its final address and data; an error aborts the run loudly.
	ValidateDrain func(k core.DynRef, addr uint64, data int64, size int) error

	Stats Stats
	work  Work
}

// parkEntry is one deferred-list entry: a load and its park position.
type parkEntry struct {
	k   core.DynRef
	pos uint64
}

// New builds a queue.  mem holds committed state; hier provides data-side
// timing; tags allocates violation wave tags; ss and oracle may be nil when
// the policy does not use them.
func New(cfg Config, m *mem.Memory, hier *cache.Hierarchy, tags *core.TagSource, ss *predictor.StoreSet, oracle *emu.Oracle) *Queue {
	if cfg.ForwardLatency <= 0 {
		cfg.ForwardLatency = 1
	}
	if cfg.ViolationLatency <= 0 {
		cfg.ViolationLatency = 1
	}
	q := &Queue{
		cfg:    cfg,
		mem:    m,
		hier:   hier,
		tags:   tags,
		ss:     ss,
		oracle: oracle,
	}
	q.grow(16)
	return q
}

// relocate copies the per-op run of every live block of the old ring into
// the new one, oldest at slot 0.
func relocate[T any](dst, src []T, old *Queue) {
	for l := 0; l < old.n; l++ {
		s := (old.head + l) & (len(old.seqs) - 1)
		copy(dst[l*opStride:(l+1)*opStride], src[s*opStride:(s+1)*opStride])
	}
}

// grow (re)allocates the block ring with capacity c (a power of two),
// relocating live blocks so the oldest lands at slot 0.  Wait-list links
// are remapped to the new slots; the word indexes are rebuilt, with one
// bucket per op slot, in fresh word links.
func (q *Queue) grow(c int) {
	old := *q
	q.seqs = make([]int64, c)
	q.nops = make([]uint8, c)
	const nMasks = 14
	masks := make([]bitset.Mask32, nMasks*c)
	all := [nMasks]*[]bitset.Mask32{&q.stores, &q.exec, &q.null, &q.committed, &q.addrCom,
		&q.dataCom, &q.issued, &q.certified, &q.inputsCom, &q.parked, &q.waitValid,
		&q.waiting, &q.active, &q.certWoken}
	for _, m := range all {
		*m, masks = masks[:c:c], masks[c:]
	}
	q.barBlocks = make([]uint64, (c+63)/64)
	q.addr = make([]uint64, c*opStride)
	q.data = make([]int64, c*opStride)
	q.tag = make([]core.Tag, c*opStride)
	q.size = make([]uint8, c*opStride)
	q.pc = make([]predictor.PC, c*opStride)
	q.waitFor = make([]core.DynRef, c*opStride)
	q.stamp = make([]uint64, c*opStride)
	q.wait = make([][2]link, c*opStride)
	q.word = make([][2]link, c*opStride)
	q.ppos = make([]uint64, c*opStride)
	oldAll := [nMasks][]bitset.Mask32{old.stores, old.exec, old.null, old.committed, old.addrCom,
		old.dataCom, old.issued, old.certified, old.inputsCom, old.parked, old.waitValid,
		old.waiting, old.active, old.certWoken}
	for l := 0; l < old.n; l++ {
		s := (old.head + l) & (len(old.seqs) - 1)
		q.seqs[l] = old.seqs[s]
		q.nops[l] = old.nops[s]
		for i, m := range all {
			(*m)[l] = oldAll[i][s]
		}
		q.noteBarrier(l)
	}
	relocate(q.addr, old.addr, &old)
	relocate(q.data, old.data, &old)
	relocate(q.tag, old.tag, &old)
	relocate(q.size, old.size, &old)
	relocate(q.pc, old.pc, &old)
	relocate(q.waitFor, old.waitFor, &old)
	relocate(q.stamp, old.stamp, &old)
	relocate(q.wait, old.wait, &old)
	relocate(q.ppos, old.ppos, &old)
	q.head = 0
	q.remapLinks(old.head, len(old.seqs))
	q.loadIdx = newWordIndex(c * opStride)
	q.storeIdx = newWordIndex(c * opStride)
	for l := 0; l < q.n; l++ {
		fb := l * opStride
		for m := q.exec[l] &^ q.stores[l]; !m.Empty(); m &= m - 1 {
			op := m.Min()
			q.index(&q.loadIdx, fb+op)
		}
		for m := q.stores[l] & q.exec[l] &^ q.null[l]; !m.Empty(); m &= m - 1 {
			op := m.Min()
			q.index(&q.storeIdx, fb+op)
		}
	}
}

// ringMask indexes the block ring.
func (q *Queue) ringMask() int { return len(q.seqs) - 1 }

// slot returns the physical block slot holding seq, or -1 when seq is not
// resident (drained, squashed, or never registered).
func (q *Queue) slot(seq int64) int {
	if q.n == 0 {
		return -1
	}
	i := seq - q.seqs[q.head]
	if i < 0 || i >= int64(q.n) {
		return -1
	}
	return (q.head + int(i)) & q.ringMask()
}

// opSlot resolves a key to its block slot and op index, or (-1, 0) when the
// key names no resident op.
func (q *Queue) opSlot(k core.DynRef) (slot, op int) {
	s := q.slot(k.Seq)
	if s < 0 || int(k.LSID) >= int(q.nops[s]) {
		return -1, 0
	}
	return s, int(k.LSID)
}

// RegisterBlock reserves entries for a block's memory operations at map
// time.  Blocks must be registered in ascending, contiguous sequence order
// (the simulator maps every block through here, so "seq − base" indexing
// holds by construction).
func (q *Queue) RegisterBlock(seq int64, ops []OpInfo) {
	if q.n > 0 {
		last := q.seqs[(q.head+q.n-1)&q.ringMask()]
		if last >= seq {
			panic(fmt.Sprintf("lsq: block %d registered after %d", seq, last))
		}
		if seq != last+1 {
			panic(fmt.Sprintf("lsq: block %d not contiguous after %d", seq, last))
		}
	}
	if q.n == len(q.seqs) {
		q.grow(2 * len(q.seqs))
	}
	s := (q.head + q.n) & q.ringMask()
	q.n++
	q.seqs[s] = seq
	q.nops[s] = uint8(len(ops))
	q.stores[s], q.exec[s], q.null[s] = 0, 0, 0
	q.committed[s], q.addrCom[s], q.dataCom[s] = 0, 0, 0
	q.issued[s], q.certified[s], q.inputsCom[s] = 0, 0, 0
	q.parked[s], q.waitValid[s] = 0, 0
	q.waiting[s], q.active[s], q.certWoken[s] = 0, 0, 0
	base := s * opStride
	end := base + len(ops)
	clear(q.addr[base:end])
	clear(q.data[base:end])
	clear(q.tag[base:end])
	for i, op := range ops {
		if int(op.LSID) != i {
			panic(fmt.Sprintf("lsq: block %d ops not dense at %d", seq, i))
		}
		q.size[base+i] = uint8(op.Size)
		q.pc[base+i] = op.PC
		ref := core.DynRef{Seq: seq, LSID: op.LSID}
		// Dependence capture happens here, in LSID (dispatch) order, so a
		// load's LFST lookup sees exactly the stores older than it — the
		// in-order dispatch semantics of the store-set design.
		switch {
		case op.IsStore:
			q.stores[s].Set(i)
			if q.ss != nil {
				q.ss.StoreFetched(op.PC, ref)
			}
		case q.cfg.Policy == core.IssueStoreSet && q.ss != nil:
			q.waitFor[base+i] = q.ss.LoadDependence(op.PC)
			q.waitValid[s].Set(i)
		case q.cfg.Policy == core.IssueOracle && q.oracle != nil:
			q.waitFor[base+i] = q.oracle.Dep(ref)
			q.waitValid[s].Set(i)
		}
	}
	q.noteBarrier(s)
	q.resident += len(ops)
	if q.resident > q.Stats.PeakOccupancy {
		q.Stats.PeakOccupancy = q.resident
	}
}

func (q *Queue) occupancy() int { return q.resident }

// Work returns the query work counters (see Work).
func (q *Queue) Work() Work { return q.work }

// SquashFrom removes every block with sequence >= seq.
func (q *Queue) SquashFrom(seq int64) {
	if q.n > 0 {
		cut := seq - q.seqs[q.head]
		if cut < 0 {
			cut = 0
		}
		// Unlink every squashed op while its slot still resolves.  The
		// loads on a squashed store's wait lists are younger, so squashed
		// too.
		for l := int(cut); l < q.n; l++ {
			s := (q.head + l) & q.ringMask()
			q.resident -= int(q.nops[s])
			q.nCand -= (q.inputsCom[s] &^ q.certified[s]).Count()
			q.release(s)
		}
		if int64(q.n) > cut {
			q.n = int(cut)
		}
	}
	q.filterKeys(&q.activeList, seq)
	q.filterKeys(&q.certWake, seq)
	q.certDirty = true
}

// release unlinks block slot s's ops as the block leaves the window: from
// wait lists, word indexes and the active count, which drops its parked
// loads' deferred-list entries.  It leaves every op's links zero, so a
// slot is ready for reuse without clearing.
func (q *Queue) release(s int) {
	fb := s * opStride
	for m := q.waiting[s]; !m.Empty(); m &= m - 1 {
		q.unwait(waitIssue, fb+m.Min())
	}
	q.nActive -= q.active[s].Count()
	for m := q.exec[s] &^ q.stores[s]; !m.Empty(); m &= m - 1 {
		q.unindex(&q.loadIdx, fb+m.Min())
	}
	for m := q.inputsCom[s] &^ q.certified[s] &^ q.certWoken[s]; !m.Empty(); m &= m - 1 {
		q.unwait(waitCert, fb+m.Min()) // a candidate may wait on a store
	}
	for m := q.stores[s] & q.exec[s] &^ q.null[s]; !m.Empty(); m &= m - 1 {
		q.unindex(&q.storeIdx, fb+m.Min())
	}
}

func (q *Queue) filterKeys(keys *[]core.DynRef, fromSeq int64) {
	kept := (*keys)[:0]
	for _, k := range *keys {
		if k.Seq < fromSeq {
			kept = append(kept, k)
		}
	}
	*keys = kept
}

// overlap reports whether [a, a+as) and [b, b+bs) intersect.
func overlap(a uint64, as int, b uint64, bs int) bool {
	return a < b+uint64(bs) && b < a+uint64(as)
}
