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
// fields (addr, data, tag, ...).  Certification and alias search walk only
// set bits (bits.TrailingZeros under the hood) instead of scanning every
// entry, and the policy predicate "any older store unexecuted" collapses
// to one AND-NOT word test per block.  Certification candidates are a
// mask too (inputsCom &^ certified), so a certification scan is one
// age-ordered walk from the window head to the first store whose address
// is not final, whatever the window depth.
//
// Address summaries: each block slot carries two 64-bit address-word
// summaries built from wordBits (one bit per 8-byte word, hashed modulo
// 64): lwords covers every address any of the block's loads has been
// given, swords every address any of its stores has executed at.  They are
// ORed into and zeroed only when the slot is (re)registered, never
// cleared otherwise, so they are supersets: a stale bit costs one wasted
// block walk, never a missed overlap.  A store's violation re-check skips
// every younger block whose lwords misses the store's words, and a load's
// forwarding walk skips every older block whose swords misses the load's.
// lwords is written in LoadTry, where a load's address is set, not at
// issue: a load that re-executes at a new address while the MSHRs are busy
// keeps its issued bit, and the re-check must find it at the new address.
//
// Store-execution epoch: a policy deferral waits either on "some older
// store unexecuted" (conservative policy, guarded replays) or on "the
// awaited store executed" (store-set, oracle).  Both lift only when a
// store executes for the first time: a squash that removes a load's older
// store removes the load too, a drain removes only a block whose stores
// have all executed, and a resident load's guard is never dropped.
// storeExecs counts those first executions; a load deferred by policy
// records the count, and TakeReady re-runs its policy check only once the
// count has moved.  Skipping the check is exact: it would have deferred
// the load again, so TakeReady counts the deferral all the same.
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

// Violation reports a load whose previously returned value is stale.
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

	// Flat per-op fields, stride opStride, indexed slot*opStride + LSID.
	addr    []uint64
	data    []int64 // store data, or the load's last returned value
	tag     []core.Tag
	size    []uint8
	pc      []predictor.PC
	waitFor []core.DynRef
	stamp   []uint64 // certification-candidate arrival order
	// deferredAt is storeExecs+1 as of a load's last policy deferral, or 0
	// when its last issue attempt ended otherwise.
	deferredAt []uint64

	// Per-block address-word summaries (see the package comment): the
	// words of every address the block's loads were given, and of every
	// address its stores executed at.
	lwords []uint64
	swords []uint64

	// storeExecs counts first store executions (StoreUpdate or
	// StoreNullify on an unexecuted store), the only event that can lift a
	// policy deferral.
	storeExecs uint64

	// viol is the violation list StoreUpdate and StoreNullify return,
	// reused so a violating store allocates nothing.
	viol []Violation

	resident int // ops across blocks (occupancy is read every cycle)

	deferred []core.DynRef // parked loads, re-evaluated when dirty
	dirty    bool
	mshrWait bool // some load parked on MSHR pressure; retry every cycle

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
	// certified.  nCand counts them (the scan's early-out and stopping
	// point); nextStamp numbers arrivals so a scan reports its hits in
	// arrival order whatever order it finds them in.
	nCand     int
	nextStamp uint64

	// Scan scratch, reused so a steady-state scan allocates nothing: the
	// byte ranges of the uncommitted address-final stores passed so far,
	// and the arrival stamps of this scan's hits (parallel to its output).
	pend     []span
	hitStamp []uint64

	// ValidateDrain, when set (tests), is called for every drained store
	// with its final address and data; an error aborts the run loudly.
	ValidateDrain func(k core.DynRef, addr uint64, data int64, size int) error

	Stats Stats
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

// grow (re)allocates the block ring with capacity c (a power of two),
// relocating live blocks so the oldest lands at slot 0.
func (q *Queue) grow(c int) {
	old := *q
	q.seqs = make([]int64, c)
	q.nops = make([]uint8, c)
	masks := make([]bitset.Mask32, 11*c)
	q.stores, masks = masks[:c:c], masks[c:]
	q.exec, masks = masks[:c:c], masks[c:]
	q.null, masks = masks[:c:c], masks[c:]
	q.committed, masks = masks[:c:c], masks[c:]
	q.addrCom, masks = masks[:c:c], masks[c:]
	q.dataCom, masks = masks[:c:c], masks[c:]
	q.issued, masks = masks[:c:c], masks[c:]
	q.certified, masks = masks[:c:c], masks[c:]
	q.inputsCom, masks = masks[:c:c], masks[c:]
	q.parked, masks = masks[:c:c], masks[c:]
	q.waitValid = masks[:c:c]
	q.lwords = make([]uint64, c)
	q.swords = make([]uint64, c)
	q.addr = make([]uint64, c*opStride)
	q.data = make([]int64, c*opStride)
	q.tag = make([]core.Tag, c*opStride)
	q.size = make([]uint8, c*opStride)
	q.pc = make([]predictor.PC, c*opStride)
	q.waitFor = make([]core.DynRef, c*opStride)
	q.stamp = make([]uint64, c*opStride)
	q.deferredAt = make([]uint64, c*opStride)
	for l := 0; l < old.n; l++ {
		s := (old.head + l) & (len(old.seqs) - 1)
		q.seqs[l] = old.seqs[s]
		q.nops[l] = old.nops[s]
		q.stores[l] = old.stores[s]
		q.exec[l] = old.exec[s]
		q.null[l] = old.null[s]
		q.committed[l] = old.committed[s]
		q.addrCom[l] = old.addrCom[s]
		q.dataCom[l] = old.dataCom[s]
		q.issued[l] = old.issued[s]
		q.certified[l] = old.certified[s]
		q.inputsCom[l] = old.inputsCom[s]
		q.parked[l] = old.parked[s]
		q.waitValid[l] = old.waitValid[s]
		q.lwords[l] = old.lwords[s]
		q.swords[l] = old.swords[s]
		copy(q.addr[l*opStride:(l+1)*opStride], old.addr[s*opStride:(s+1)*opStride])
		copy(q.data[l*opStride:(l+1)*opStride], old.data[s*opStride:(s+1)*opStride])
		copy(q.tag[l*opStride:(l+1)*opStride], old.tag[s*opStride:(s+1)*opStride])
		copy(q.size[l*opStride:(l+1)*opStride], old.size[s*opStride:(s+1)*opStride])
		copy(q.pc[l*opStride:(l+1)*opStride], old.pc[s*opStride:(s+1)*opStride])
		copy(q.waitFor[l*opStride:(l+1)*opStride], old.waitFor[s*opStride:(s+1)*opStride])
		copy(q.stamp[l*opStride:(l+1)*opStride], old.stamp[s*opStride:(s+1)*opStride])
		copy(q.deferredAt[l*opStride:(l+1)*opStride], old.deferredAt[s*opStride:(s+1)*opStride])
	}
	q.head = 0
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
	q.lwords[s], q.swords[s] = 0, 0
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
	q.resident += len(ops)
	if q.resident > q.Stats.PeakOccupancy {
		q.Stats.PeakOccupancy = q.resident
	}
}

func (q *Queue) occupancy() int { return q.resident }

// SquashFrom removes every block with sequence >= seq.
func (q *Queue) SquashFrom(seq int64) {
	if q.n > 0 {
		cut := seq - q.seqs[q.head]
		if cut < 0 {
			cut = 0
		}
		for l := int(cut); l < q.n; l++ {
			s := (q.head + l) & q.ringMask()
			q.resident -= int(q.nops[s])
			q.nCand -= (q.inputsCom[s] &^ q.certified[s]).Count()
		}
		if int64(q.n) > cut {
			q.n = int(cut)
		}
	}
	q.filterKeys(&q.deferred, seq)
	q.dirty = true
	q.certDirty = true
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

// span is the byte range [lo, hi) of a store pending in a certification
// scan.
type span struct{ lo, hi uint64 }

// overlap reports whether [a, a+as) and [b, b+bs) intersect.
func overlap(a uint64, as int, b uint64, bs int) bool {
	return a < b+uint64(bs) && b < a+uint64(as)
}

// wordBits maps a byte range onto a 64-bit address-word summary: one bit
// per 8-byte word it touches (at most two), hashed modulo 64.  Overlapping
// ranges always share a bit, so a zero intersection proves disjointness.
func wordBits(addr uint64, size int) uint64 {
	last := addr
	if size > 1 {
		last += uint64(size - 1)
	}
	return 1<<(addr>>3&63) | 1<<(last>>3&63)
}
