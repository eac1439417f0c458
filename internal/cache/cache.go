// Package cache provides the timing model for the memory hierarchy: set-
// associative L1 instruction/data caches backed by a unified L2 and a flat
// DRAM latency, with a bounded number of outstanding misses (MSHRs).
//
// The model is timing-only: data values always come from internal/mem and
// the load/store queue, so speculative timing can never corrupt state.
package cache

import (
	"fmt"
	"math"
)

// Config describes one cache level.
type Config struct {
	SizeBytes  int
	Assoc      int
	LineBytes  int
	HitLatency int
}

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// MissRate returns misses / accesses.
func (s *Stats) MissRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Misses) / float64(n)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   int64
}

// slabLines is the size of the slabs a level carves its sets from: a set
// gets its ways on its first fill, so a run pays for the sets it touches,
// not for the whole level.
const slabLines = 256

// Cache is one set-associative, write-back, write-allocate cache level.
type Cache struct {
	cfg Config
	// sets[i] is nil until set i's first fill carves its ways; an uncarved
	// set misses like a set of invalid lines.
	sets     [][]line
	slab     []line // carved-from slab: lines not yet given to a set
	uncarved int    // lines of the level not yet in any slab
	shift    uint
	mask     uint64
	tick     int64
	Stats    Stats
}

// New builds a cache from its configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", cfg.LineBytes)
	}
	if cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache: associativity %d", cfg.Assoc)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines <= 0 || nLines%cfg.Assoc != 0 {
		return nil, fmt.Errorf("cache: %d bytes / %dB lines not divisible into %d ways", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc)
	}
	nSets := nLines / cfg.Assoc
	if nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets is not a power of two", nSets)
	}
	c := &Cache{cfg: cfg, sets: make([][]line, nSets), uncarved: nLines}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c.shift = shift
	c.mask = uint64(nSets - 1)
	return c, nil
}

// MustNew is New that panics on error, for configuration literals.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit         bool
	VictimDirty bool // an eviction wrote back a dirty line
}

// Access looks up (and on miss, fills) the line containing addr.
// write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.tick++
	tag := addr >> c.shift
	set := c.sets[tag&c.mask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Stats.Misses++
	if set == nil {
		set = c.carve(tag & c.mask)
	}
	// Fill, evicting LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if set[victim].valid {
		c.Stats.Evictions++
		if set[victim].dirty {
			c.Stats.Writebacks++
			res.VictimDirty = true
		}
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return res
}

// carve gives set i its ways, all invalid, from the current slab, starting
// a new slab when that one is used up.  Each set is capped at its ways, so
// it can never grow into its neighbour.
func (c *Cache) carve(i uint64) []line {
	a := c.cfg.Assoc
	if len(c.slab) < a {
		c.slab = make([]line, min(max(slabLines/a, 1)*a, c.uncarved))
		c.uncarved -= len(c.slab)
	}
	set := c.slab[:a:a]
	c.slab = c.slab[a:]
	c.sets[i] = set
	return set
}

// Probe reports whether addr currently hits, without changing state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.shift
	set := c.sets[tag&c.mask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// HierConfig describes the full hierarchy.
type HierConfig struct {
	L1D Config
	L1I Config
	L2  Config
	// MemLatency is the flat DRAM access latency in cycles.
	MemLatency int
	// WritebackPenalty is added when a miss evicts a dirty line.
	WritebackPenalty int
	// MSHRs bounds concurrently outstanding misses per L1; zero means 16.
	MSHRs int
}

// DefaultHierConfig mirrors the TRIPS-era configuration in the paper's
// machine table: 32KB 2-way L1s with 2-cycle hits, 1MB 16-way L2 at 12
// cycles, ~100-cycle DRAM.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1D:              Config{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, HitLatency: 2},
		L1I:              Config{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, HitLatency: 1},
		L2:               Config{SizeBytes: 1 << 20, Assoc: 16, LineBytes: 64, HitLatency: 12},
		MemLatency:       100,
		WritebackPenalty: 4,
		MSHRs:            16,
	}
}

// Hierarchy ties the levels together and tracks MSHR occupancy.
type Hierarchy struct {
	L1D *Cache
	L1I *Cache
	L2  *Cache
	cfg HierConfig

	// Outstanding data-side miss completion times, pruned lazily, and the
	// earliest of them (math.MaxInt64 when none): no miss completes before
	// cycle due, so until then there is nothing to prune.
	inflight []int64
	due      int64
	// MSHRStalls counts accesses rejected because all MSHRs were busy.
	MSHRStalls int64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 16
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	return &Hierarchy{L1D: l1d, L1I: l1i, L2: l2, cfg: cfg, due: math.MaxInt64}, nil
}

func (h *Hierarchy) prune(now int64) {
	kept := h.inflight[:0]
	h.due = math.MaxInt64
	for _, t := range h.inflight {
		if t > now {
			kept = append(kept, t)
			h.due = min(h.due, t)
		}
	}
	h.inflight = kept
}

// OutstandingData reports how many data-side misses are still in flight at
// cycle now (current MSHR occupancy), for cycle-accounting attribution.
// It runs every cycle, so it prunes only once a miss is due.
func (h *Hierarchy) OutstandingData(now int64) int {
	if now >= h.due {
		h.prune(now)
	}
	return len(h.inflight)
}

// DataAccess returns the latency of a data-side access at cycle now, or
// ok=false when all MSHRs are busy and the access must retry.
func (h *Hierarchy) DataAccess(now int64, addr uint64, write bool) (lat int, ok bool) {
	r1 := h.L1D.Access(addr, write)
	lat = h.L1D.HitLatency()
	if r1.Hit {
		return lat, true
	}
	h.prune(now)
	if len(h.inflight) >= h.cfg.MSHRs {
		h.MSHRStalls++
		return 0, false
	}
	r2 := h.L2.Access(addr, false)
	lat += h.L2.HitLatency()
	if !r2.Hit {
		lat += h.cfg.MemLatency
	}
	if r1.VictimDirty || r2.VictimDirty {
		lat += h.cfg.WritebackPenalty
	}
	done := now + int64(lat)
	h.due = min(h.due, done)
	h.inflight = append(h.inflight, done)
	return lat, true
}

// InstAccess returns the latency of an instruction-side access (block
// fetch); instruction fetch is not MSHR-limited in this model.
func (h *Hierarchy) InstAccess(addr uint64) int {
	r1 := h.L1I.Access(addr, false)
	latency := h.L1I.HitLatency()
	if r1.Hit {
		return latency
	}
	r2 := h.L2.Access(addr, false)
	latency += h.L2.HitLatency()
	if !r2.Hit {
		latency += h.cfg.MemLatency
	}
	return latency
}
