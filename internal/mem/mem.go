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
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

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

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	k := addr >> pageBits
	p := m.pages[k]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[k] = p
	}
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
	return int64(m.Uint(addr, 8))
}

// Write stores the low size bytes of v at addr, little-endian.
// size must be 1 or 8.
func (m *Memory) Write(addr uint64, v int64, size int) {
	if size == 1 {
		m.SetByte(addr, byte(v))
		return
	}
	u := uint64(v)
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
