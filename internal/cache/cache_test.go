package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

func TestHitAfterFill(t *testing.T) {
	c := MustNew(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 64, HitLatency: 2})
	if r := c.Access(0x100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x13f, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x140, false); r.Hit {
		t.Fatal("next-line access hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 64B lines, 256B total => 2 sets.  Three lines mapping to the
	// same set: the least recently used is evicted.
	c := MustNew(Config{SizeBytes: 256, Assoc: 2, LineBytes: 64, HitLatency: 1})
	a, b, d := uint64(0x000), uint64(0x100), uint64(0x200) // same set (bit 6 = 0)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Probe(b) {
		t.Error("b survived despite being LRU")
	}
	if !c.Probe(d) {
		t.Error("d not resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, Assoc: 1, LineBytes: 64, HitLatency: 1})
	c.Access(0x000, true) // dirty
	r := c.Access(0x080, false)
	if !r.VictimDirty {
		t.Error("dirty eviction not reported")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, Assoc: 2, LineBytes: 48, HitLatency: 1}, // non-pow2 line
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 100, Assoc: 3, LineBytes: 64, HitLatency: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cold: L1 miss, L2 miss, memory.
	lat1, ok := h.DataAccess(0, 0x1000, false)
	if !ok {
		t.Fatal("MSHR rejected first access")
	}
	// Warm: L1 hit.
	lat2, ok := h.DataAccess(200, 0x1000, false)
	if !ok || lat2 >= lat1 {
		t.Fatalf("warm %d vs cold %d", lat2, lat1)
	}
	if lat1 < 100 {
		t.Errorf("cold latency %d below DRAM latency", lat1)
	}
	if lat2 != h.L1D.HitLatency() {
		t.Errorf("warm latency %d, want %d", lat2, h.L1D.HitLatency())
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 2
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.DataAccess(0, 0x10000, false); !ok {
		t.Fatal("miss 1 rejected")
	}
	if _, ok := h.DataAccess(0, 0x20000, false); !ok {
		t.Fatal("miss 2 rejected")
	}
	if _, ok := h.DataAccess(0, 0x30000, false); ok {
		t.Fatal("miss 3 accepted with 2 MSHRs")
	}
	if h.MSHRStalls != 1 {
		t.Errorf("MSHRStalls = %d", h.MSHRStalls)
	}
	// After the misses complete, capacity frees up.
	if _, ok := h.DataAccess(10000, 0x30000, false); !ok {
		t.Fatal("miss rejected after inflight drained")
	}
}

// TestOutstandingDataMatchesCount drives a small-MSHR hierarchy with a
// fixed-seed stream of data accesses and occupancy reads at rising cycles
// and checks both against a brute-force count of the accepted misses still
// in flight: OutstandingData prunes only once a miss is due, which must
// never change what it or DataAccess's MSHR check sees.
func TestOutstandingDataMatchesCount(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHRs = 4
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var done []int64 // completion cycle of every accepted miss
	inFlight := func(now int64) int {
		n := 0
		for _, d := range done {
			if d > now {
				n++
			}
		}
		return n
	}
	var now int64
	for i := 0; i < 20000; i++ {
		now += int64(rng.Intn(3) * rng.Intn(40))
		if rng.Intn(3) == 0 {
			if got, want := h.OutstandingData(now), inFlight(now); got != want {
				t.Fatalf("step %d cycle %d: OutstandingData = %d, want %d", i, now, got, want)
			}
			continue
		}
		busy := inFlight(now)
		addr := uint64(rng.Intn(1<<16)) &^ 63
		hit := h.L1D.Probe(addr)
		lat, ok := h.DataAccess(now, addr, rng.Intn(4) == 0)
		switch {
		case hit && !ok:
			t.Fatalf("step %d: L1 hit rejected", i)
		case !hit && ok != (busy < cfg.MSHRs):
			t.Fatalf("step %d cycle %d: miss accepted=%v with %d of %d MSHRs busy", i, now, ok, busy, cfg.MSHRs)
		case !hit && ok:
			done = append(done, now+int64(lat))
		}
	}
}

func TestInstAccess(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold := h.InstAccess(0x4000)
	warm := h.InstAccess(0x4000)
	if warm >= cold {
		t.Errorf("warm %d vs cold %d", warm, cold)
	}
	if warm != h.L1I.HitLatency() {
		t.Errorf("warm latency %d", warm)
	}
}

func TestMissRate(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, Assoc: 1, LineBytes: 64, HitLatency: 1})
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate")
	}
	c.Access(0, false)
	c.Access(0, false)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v", got)
	}
}

// TestNewAllocatesPerLevelNotPerSet pins how a level pays for its lines.
// New allocates the set headers only (O(sets) bytes, not O(lines)), in a
// handful of allocations per level.  A set that is never filled holds no
// lines, and probing it allocates nothing.  A set's first fill carves its
// ways from a slab shared with later sets, and each set is capped at its
// ways so it can never grow into its neighbour.
func TestNewAllocatesPerLevelNotPerSet(t *testing.T) {
	cfg := DefaultHierConfig()
	if a := testing.AllocsPerRun(10, func() { MustNew(cfg.L2) }); a > 3 {
		t.Errorf("New(L2) made %.0f allocations, want <= 3", a)
	}
	if a := testing.AllocsPerRun(10, func() { NewHierarchy(cfg) }); a > 10 {
		t.Errorf("NewHierarchy made %.0f allocations, want <= 10", a)
	}
	nSets := cfg.L2.SizeBytes / cfg.L2.LineBytes / cfg.L2.Assoc
	lineBytes := int(unsafe.Sizeof(line{}))
	headerBytes := int(unsafe.Sizeof([]line{}))
	setBytes := bytesPerRun(10, func() { MustNew(cfg.L2) })
	// The slack covers the Cache itself and size-class rounding; all of
	// the lines would be 16 times the headers.
	if limit := nSets*headerBytes*5/4 + 1024; setBytes > limit {
		t.Errorf("New(L2) allocated %d bytes, want <= %d (%d sets; the lines alone are %d)", setBytes, limit, nSets, nSets*cfg.L2.Assoc*lineBytes)
	}

	l2 := MustNew(cfg.L2)
	if a := testing.AllocsPerRun(10, func() { l2.Probe(0x1000) }); a != 0 {
		t.Errorf("Probe of an untouched set made %.0f allocations", a)
	}
	touched := map[uint64]bool{}
	for i := uint64(0); i < 40; i++ {
		addr := i * 0x1040 // a new set each time (set bits 6..15)
		l2.Access(addr, false)
		touched[(addr>>6)&l2.mask] = true
	}
	for i, set := range l2.sets {
		if touched[uint64(i)] != (set != nil) {
			t.Fatalf("set %d: carved %v, touched %v", i, set != nil, touched[uint64(i)])
		}
		if set != nil && (len(set) != cfg.L2.Assoc || cap(set) != cfg.L2.Assoc) {
			t.Fatalf("set %d: len %d cap %d, want %d and %d", i, len(set), cap(set), cfg.L2.Assoc, cfg.L2.Assoc)
		}
	}
	// Touching one set of a fresh level costs at most one slab of lines.
	oneSet := bytesPerRun(10, func() { MustNew(cfg.L2).Access(0x40, false) })
	if limit := setBytes + slabLines*lineBytes + 1024; oneSet > limit {
		t.Errorf("New(L2) plus one fill allocated %d bytes, want <= %d", oneSet, limit)
	}

	// Filling every set of a small level carves exactly its lines.
	c := MustNew(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64, HitLatency: 1})
	for a := uint64(0); a < 512; a += 64 {
		c.Access(a, false)
	}
	for i, set := range c.sets {
		if len(set) != 2 || cap(set) != 2 {
			t.Fatalf("set %d: len %d cap %d, want 2 and 2", i, len(set), cap(set))
		}
	}
	if c.uncarved != 0 || len(c.slab) != 0 {
		t.Errorf("after filling every set: %d lines uncarved, %d left in the slab", c.uncarved, len(c.slab))
	}
}

// bytesPerRun returns the mean heap bytes f allocates per call.
func bytesPerRun(runs int, f func()) int {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}
