package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write(0x1000, -123456789, 8)
	if got := m.Read(0x1000, 8); got != -123456789 {
		t.Errorf("read back %d", got)
	}
	m.Write(0x2000, 0x1FF, 1) // only the low byte is stored
	if got := m.Read(0x2000, 1); got != 0xFF {
		t.Errorf("byte read back %#x", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if m.Read(0xDEAD_BEEF, 8) != 0 || m.ByteAt(42) != 0 {
		t.Error("unwritten memory must read zero")
	}
	if m.Footprint() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write(0x100, 0x0807060504030201, 8)
	for i := 0; i < 8; i++ {
		if got := m.ByteAt(0x100 + uint64(i)); got != byte(i+1) {
			t.Errorf("byte %d = %#x", i, got)
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(0x1000 - 4) // straddles a 4K page boundary
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read %#x", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Write(0x100, 1, 8)
	c := m.Clone()
	c.Write(0x100, 2, 8)
	if m.Read(0x100, 8) != 1 {
		t.Error("clone aliases original")
	}
	if !m.Equal(m.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestEqualTreatsZeroPagesEqual(t *testing.T) {
	a, b := New(), New()
	a.Write(0x100, 0, 8) // allocates a page of zeros
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("zero page must equal absent page")
	}
	a.Write(0x100, 7, 8)
	if a.Equal(b) {
		t.Error("different contents compare equal")
	}
}

func TestFirstDiff(t *testing.T) {
	a, b := New(), New()
	a.Write(0x500, 1, 8)
	b.Write(0x500, 1, 8)
	if _, ok := a.FirstDiff(b); ok {
		t.Error("equal memories report a diff")
	}
	b.Write(0x700, 9, 8)
	addr, ok := a.FirstDiff(b)
	if !ok || addr != 0x700 {
		t.Errorf("FirstDiff = %#x, %v", addr, ok)
	}
}

// TestRoundTripProperty: any (addr, value) pair round-trips through an
// 8-byte write and read, and a 1-byte write preserves neighbours.
func TestRoundTripProperty(t *testing.T) {
	f := func(addr uint32, v int64, b byte) bool {
		m := New()
		a := uint64(addr)
		m.Write(a, v, 8)
		if m.Read(a, 8) != v {
			return false
		}
		m.SetByte(a+8, b)
		return m.Read(a, 8) == v && m.ByteAt(a+8) == b
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestUintMatchesBytes checks the one-lookup read against per-byte reads at
// every size, at offsets that straddle a page boundary, and on a page that
// was never written.
func TestUintMatchesBytes(t *testing.T) {
	m := New()
	for i := uint64(0); i < 24; i++ {
		m.SetByte(2*pageSize-12+i, byte(0xA0+i)) // straddles pages 1 and 2
	}
	m.SetByte(0x30, 0x7F)
	for _, base := range []uint64{2*pageSize - 12, 0x30, 5 * pageSize, ^uint64(0) - 3} {
		for off := uint64(0); off < 16; off++ {
			addr := base + off
			for size := 1; size <= 8; size++ {
				var want uint64
				for i := 0; i < size; i++ {
					want |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
				}
				if got := m.Uint(addr, size); got != want {
					t.Errorf("Uint(%#x, %d) = %#x, per-byte %#x", addr, size, got, want)
				}
			}
		}
	}
	if m.Footprint() != 3 {
		t.Errorf("footprint %d pages, want 3: reads must not allocate", m.Footprint())
	}
}
