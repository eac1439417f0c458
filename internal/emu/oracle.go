package emu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/isa"
)

// writer is the last store to write some bytes.  order is 1 + the
// store's dynamic memory-op sequence number, so the youngest of several
// writers has the highest order and the zero writer is none; ref is the
// store's DynRef packed by packRef.
type writer struct {
	order int64
	ref   int64
}

// maxPackedSeq bounds the block sequence a packed DynRef holds.
const maxPackedSeq = 1 << 55

func packRef(seq int64, lsid int8) int64 { return seq<<8 | int64(uint8(lsid)) }

func unpackRef(p int64) core.DynRef { return core.DynRef{Seq: p >> 8, LSID: int8(p)} }

// The oracle's shadow memory mirrors mem's 4 KiB pages, one entry per
// 8-byte word.
const (
	shadowBits  = 12
	shadowSize  = 1 << shadowBits
	shadowMask  = shadowSize - 1
	shadowWords = shadowSize / 8
)

// shadowPage holds the youngest writer of each byte of one page.
// words[w] is the youngest writer of any byte of word w: the last store to
// touch the word.  When its order is positive or zero that store wrote the
// whole word, or no store touched it, and every byte has that writer.
// When its order is negated the last store wrote only part of the word,
// and bytes holds the word's writers byte by byte; a page gets bytes on
// its first partial store.
type shadowPage struct {
	words [shadowWords]writer
	bytes *[shadowSize]writer
}

// shadow is the oracle's last-writer memory.  A store overwrites the
// entries of the bytes it writes, so the shadow grows with the pages
// stores touch, not with the number of stores.
type shadow struct {
	pages map[uint64]*shadowPage
	cache [32]shadowCached // direct-mapped, as mem.Memory's page cache
}

type shadowCached struct {
	tag  uint64 // 1 + the page number of page, or 0 when the entry is empty
	page *shadowPage
}

// page returns the shadow page holding addr, creating it when create is
// set; without create a missing page is nil.
func (s *shadow) page(addr uint64, create bool) *shadowPage {
	k := addr >> shadowBits
	c := &s.cache[k*0x9e3779b97f4a7c15>>59]
	if c.tag == k+1 {
		return c.page
	}
	p := s.pages[k]
	if p == nil {
		if !create {
			return nil
		}
		p = new(shadowPage)
		s.pages[k] = p
	}
	c.tag, c.page = k+1, p
	return p
}

// store records w as the last writer of the size bytes at addr.
func (s *shadow) store(addr uint64, size int, w writer) {
	if size == 8 && addr&7 == 0 {
		s.page(addr, true).words[addr&shadowMask>>3] = w
		return
	}
	for n := uint64(size); n > 0; {
		off := addr & 7
		c := min(8-off, n)
		p := s.page(addr, true)
		last := &p.words[addr&shadowMask>>3]
		if c == 8 {
			*last = w
		} else {
			if p.bytes == nil {
				p.bytes = new([shadowSize]writer)
			}
			word := p.bytes[addr&shadowMask&^7:][:8]
			if last.order >= 0 {
				for i := range word {
					word[i] = *last
				}
			}
			for i := off; i < off+c; i++ {
				word[i] = w
			}
			*last = writer{order: -w.order, ref: w.ref}
		}
		addr += c
		n -= c
	}
}

// youngest returns the youngest store that wrote any of the size bytes at
// addr, or the zero writer if no store has.
func (s *shadow) youngest(addr uint64, size int) writer {
	if size == 8 && addr&7 == 0 {
		p := s.page(addr, false)
		if p == nil {
			return writer{}
		}
		w := p.words[addr&shadowMask>>3]
		w.order = max(w.order, -w.order)
		return w
	}
	var best writer
	for n := uint64(size); n > 0; {
		off := addr & 7
		c := min(8-off, n)
		if p := s.page(addr, false); p != nil {
			w := p.words[addr&shadowMask>>3]
			switch {
			case w.order >= 0:
			case c == 8:
				w.order = -w.order
			default:
				w = writer{}
				for _, b := range p.bytes[addr&shadowMask : addr&shadowMask+c] {
					if b.order > w.order {
						w = b
					}
				}
			}
			if w.order > best.order {
				best = w
			}
		}
		addr += c
		n -= c
	}
	return best
}

// Oracle is the perfect-oracle table: for each dynamic load, the dynamic
// store (if any) that most recently wrote an overlapping byte.  It is
// read-only once Run returns.  Each committed block has one entry in
// blocks: a mask of its LSIDs that are loads with a conflicting store,
// and the index in deps of the first of them.  deps holds those loads'
// stores, packed by packRef, block by block and in LSID order within a
// block, so Dep is a mask test and a population count.
type Oracle struct {
	blocks segList[oracleBlock]
	deps   segList[int64]
	cur    *oracleBlock // the executing block's entry, while Run fills the table
}

type oracleBlock struct {
	base int32
	mask uint32 // bit l: LSID l has a dependence; isa.MaxMemOps is 32
}

// begin opens the next committed block's entry.
func (o *Oracle) begin() error {
	if o.deps.n > math.MaxInt32-isa.MaxMemOps {
		return fmt.Errorf("emu: oracle table holds at most %d dependences", math.MaxInt32)
	}
	o.blocks.push(oracleBlock{base: int32(o.deps.n)})
	o.cur = o.blocks.at(o.blocks.n - 1)
	return nil
}

// set records that the executing block's load lsid depends on the store
// ref packs.  An LSID outside the ISA's range names no entry (only a
// corrupted program has one) and is dropped; a second load with one
// LSID replaces the first's entry.
func (o *Oracle) set(lsid int8, ref int64) {
	if lsid < 0 || int(lsid) >= isa.MaxMemOps {
		return
	}
	b := o.cur
	bit := uint32(1) << lsid
	i := int(b.base) + bits.OnesCount32(b.mask&(bit-1))
	if b.mask&bit == 0 {
		b.mask |= bit
		// LSIDs normally arrive in increasing order, so i is the end;
		// otherwise the block's higher entries move up one.
		o.deps.push(0)
		for j := o.deps.n - 1; j > i; j-- {
			*o.deps.at(j) = *o.deps.at(j - 1)
		}
	}
	*o.deps.at(i) = ref
}

// Dep returns the store the dynamic load must wait for, or core.NoDynRef.
// A store, a load with no conflicting store and any reference the run
// never committed all answer core.NoDynRef.
func (o *Oracle) Dep(load core.DynRef) core.DynRef {
	if load.Seq < 0 || load.Seq >= int64(o.blocks.n) || load.LSID < 0 || int(load.LSID) >= isa.MaxMemOps {
		return core.NoDynRef
	}
	b := o.blocks.at(int(load.Seq))
	bit := uint32(1) << load.LSID
	if b.mask&bit == 0 {
		return core.NoDynRef
	}
	return unpackRef(*o.deps.at(int(b.base) + bits.OnesCount32(b.mask&(bit-1))))
}

// segList is an append-only list kept in segments that double in size,
// so growing it never copies what it holds: segment k has room for
// 2^(segBits+k) elements and starts at element 2^segBits·(2^k - 1).
type segList[T any] struct {
	segs [][]T
	n    int
}

const segBits = 8

// push appends v.
func (l *segList[T]) push(v T) {
	k := len(l.segs)
	if k == 0 || len(l.segs[k-1]) == cap(l.segs[k-1]) {
		l.segs = append(l.segs, make([]T, 0, 1<<(segBits+k)))
		k++
	}
	l.segs[k-1] = append(l.segs[k-1], v)
	l.n++
}

// at returns element i, which must be below n.
func (l *segList[T]) at(i int) *T {
	j := uint(i) + 1<<segBits
	k := bits.Len(j) - 1 - segBits
	return &l.segs[k][j-1<<(segBits+k)]
}

// flatten returns the elements as one slice, or nil when there are none.
func (l *segList[T]) flatten() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for _, s := range l.segs {
		out = append(out, s...)
	}
	return out
}
