package cache

import "testing"

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

// TestNewAllocatesPerLevelNotPerSet pins New's allocation count: the lines
// of a level share one backing array, so building the default hierarchy
// (2,048 sets over three levels) costs a handful of allocations, and each
// set is capped at its ways so it can never grow into its neighbour.
func TestNewAllocatesPerLevelNotPerSet(t *testing.T) {
	cfg := DefaultHierConfig()
	if a := testing.AllocsPerRun(10, func() { MustNew(cfg.L2) }); a > 3 {
		t.Errorf("New(L2) made %.0f allocations, want <= 3", a)
	}
	if a := testing.AllocsPerRun(10, func() { NewHierarchy(cfg) }); a > 10 {
		t.Errorf("NewHierarchy made %.0f allocations, want <= 10", a)
	}
	c := MustNew(Config{SizeBytes: 512, Assoc: 2, LineBytes: 64, HitLatency: 1})
	for i, set := range c.sets {
		if len(set) != 2 || cap(set) != 2 {
			t.Fatalf("set %d: len %d cap %d, want 2 and 2", i, len(set), cap(set))
		}
	}
}
