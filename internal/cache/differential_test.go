package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCacheMatchesReference drives Cache and the reference cache (every
// set built up front) with the same fixed-seed random address streams and
// requires every AccessResult, every Probe and the final Stats to agree.
// The levels are small so that sets fill, evict and write back often, and
// cover direct-mapped, the 2- and 16-way levels the machine uses, an
// associativity that does not divide a slab, and one fully associative
// level wider than a slab, plus the default L1 and L2 themselves.
func TestCacheMatchesReference(t *testing.T) {
	def := DefaultHierConfig()
	cfgs := []Config{
		{SizeBytes: 512, Assoc: 1, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 2 << 10, Assoc: 4, LineBytes: 32, HitLatency: 1},
		{SizeBytes: 384 * 64, Assoc: 3, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 8 << 10, Assoc: 16, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 512 * 64, Assoc: 512, LineBytes: 64, HitLatency: 1},
		def.L1D,
		def.L2,
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%dB-%dway-%dB/seed%d", cfg.SizeBytes, cfg.Assoc, cfg.LineBytes, seed)
			t.Run(name, func(t *testing.T) { compareCache(t, cfg, seed) })
		}
	}
}

func compareCache(t *testing.T, cfg Config, seed int64) {
	c, ref := MustNew(cfg), mustRef(refNew(cfg))
	rng := rand.New(rand.NewSource(seed))
	// Addresses span four times the level so sets conflict, with a hot
	// region that keeps some lines resident long enough to be hit.
	span := uint64(4 * cfg.SizeBytes)
	hot := uint64(cfg.SizeBytes / 4)
	base := uint64(rng.Intn(1<<20)) << 6
	for op := 0; op < 20000; op++ {
		var addr uint64
		if rng.Intn(3) == 0 {
			addr = base + uint64(rng.Int63n(int64(hot)))
		} else {
			addr = base + uint64(rng.Int63n(int64(span)))
		}
		if rng.Intn(8) == 0 {
			if got, want := c.Probe(addr), ref.Probe(addr); got != want {
				t.Fatalf("op %d: Probe(%#x) = %v, reference %v", op, addr, got, want)
			}
			continue
		}
		write := rng.Intn(4) == 0
		if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
			t.Fatalf("op %d: Access(%#x, %v) = %+v, reference %+v", op, addr, write, got, want)
		}
	}
	if c.Stats != ref.Stats {
		t.Fatalf("stats = %+v, reference %+v", c.Stats, ref.Stats)
	}
	for a := base; a < base+span; a += uint64(cfg.LineBytes) {
		if got, want := c.Probe(a), ref.Probe(a); got != want {
			t.Fatalf("final Probe(%#x) = %v, reference %v", a, got, want)
		}
	}
}

func mustRef(c *refCache, err error) *refCache {
	if err != nil {
		panic(err)
	}
	return c
}
