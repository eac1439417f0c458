// Package mem provides the sparse byte-addressable memory that backs both
// the architectural emulator and the cycle simulator.
//
// Values live here; timing lives in internal/cache.  The two are decoupled
// so that speculative timing models can never corrupt architectural state.
package mem

import "encoding/binary"

// pageBits selects a 4 KiB page granularity for the sparse map.
const pageBits = 12
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Memory is a sparse little-endian 64-bit address space.  The zero value is
// not usable; call New.
//
// A Memory has one owner.  Every read and write goes through a cache of
// the pages it touched last, so even reads write the Memory: two
// goroutines may share one only to Clone it or compare it (Equal,
// FirstDiff, Footprint), which read the page map and never the cache.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	cache [cacheSize]cached
}

// The page cache is direct-mapped: page k may sit only in entry
// cacheIndex(k), and a page, once made, stays, so an entry is never stale.
const (
	cacheBits = 5
	cacheSize = 1 << cacheBits
)

type cached struct {
	tag  uint64 // 1 + the page number of page, or 0 when the entry is empty
	page *[pageSize]byte
}

// cacheIndex spreads page numbers over the cache by Fibonacci hashing, so
// arrays that start on aligned pages still get distinct entries.
func cacheIndex(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 >> (64 - cacheBits) }

// New returns an empty memory.  Unwritten bytes read as zero.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// Clone returns a deep copy, used to snapshot initial workload state so the
// emulator and the simulator can run from identical images.
func (m *Memory) Clone() *Memory {
	c := New()
	for k, p := range m.pages {
		np := *p
		c.pages[k] = &np
	}
	return c
}

// Equal reports whether two memories have identical contents.  Pages that
// are all zero on one side and absent on the other compare equal.
func (m *Memory) Equal(o *Memory) bool {
	return m.covers(o) && o.covers(m)
}

func (m *Memory) covers(o *Memory) bool {
	//lint:ordered — pure membership scan: the boolean result is the AND over all pages, order-invisible
	for k, p := range m.pages {
		op, ok := o.pages[k]
		if !ok {
			if !isZero(p) {
				return false
			}
			continue
		}
		if *p != *op {
			return false
		}
	}
	return true
}

// FirstDiff returns the lowest address at which the two memories differ and
// true, or 0 and false when they are equal.  Intended for test diagnostics.
func (m *Memory) FirstDiff(o *Memory) (uint64, bool) {
	best := uint64(0)
	found := false
	note := func(addr uint64) {
		if !found || addr < best {
			best, found = addr, true
		}
	}
	scan := func(a, b *Memory) {
		//lint:ordered — note() folds min(addr), which is commutative, so visit order cannot change the result
		for k, p := range a.pages {
			op := b.pages[k]
			for i := 0; i < pageSize; i++ {
				ob := byte(0)
				if op != nil {
					ob = op[i]
				}
				if p[i] != ob {
					note(k<<pageBits | uint64(i))
					break
				}
			}
		}
	}
	scan(m, o)
	scan(o, m)
	return best, found
}

func isZero(p *[pageSize]byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// page returns the page holding addr, creating it when create is set;
// without create a missing page is nil.
func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	k := addr >> pageBits
	c := &m.cache[cacheIndex(k)]
	if c.tag == k+1 {
		return c.page
	}
	p := m.pages[k]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[k] = p
	}
	c.tag, c.page = k+1, p
	return p
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Uint returns the size bytes (1 to 8) at addr as a little-endian unsigned
// integer.  A read within one page costs one page lookup; only a read that
// crosses a page boundary falls back to per-byte reads.
func (m *Memory) Uint(addr uint64, size int) uint64 {
	var v uint64
	off := addr & pageMask
	if off+uint64(size) > pageSize {
		for i := 0; i < size; i++ {
			v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
		}
		return v
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	if size == 8 {
		return binary.LittleEndian.Uint64(p[off:])
	}
	for i, b := range p[off : off+uint64(size)] {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Read returns size bytes at addr as a little-endian integer.
// size must be 1 or 8.
func (m *Memory) Read(addr uint64, size int) int64 {
	if size == 1 {
		return int64(m.ByteAt(addr))
	}
	if off := addr & pageMask; off+8 <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return int64(binary.LittleEndian.Uint64(p[off:]))
	}
	return int64(m.Uint(addr, 8))
}

// Write stores the low size bytes of v at addr, little-endian.
// size must be 1 or 8.  A write within one page costs one page lookup;
// only a write that crosses a page boundary falls back to per-byte writes.
// Either way every page the write touches becomes resident, even when v
// is zero.
func (m *Memory) Write(addr uint64, v int64, size int) {
	if size == 1 {
		m.SetByte(addr, byte(v))
		return
	}
	u := uint64(v)
	if off := addr & pageMask; off+8 <= pageSize {
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], u)
		return
	}
	for i := 0; i < 8; i++ {
		m.SetByte(addr+uint64(i), byte(u>>(8*i)))
	}
}

// ReadU64 is a convenience unsigned 8-byte read.
func (m *Memory) ReadU64(addr uint64) uint64 { return uint64(m.Read(addr, 8)) }

// WriteU64 is a convenience unsigned 8-byte write.
func (m *Memory) WriteU64(addr uint64, v uint64) { m.Write(addr, int64(v), 8) }

// Footprint returns the number of resident pages, for stats and tests.
func (m *Memory) Footprint() int { return len(m.pages) }
