package cache

import "fmt"

// refCache is the cache level as it was before sets were carved on first
// fill: one backing array for every line, sliced into sets up front.  It is
// kept verbatim (only identifiers renamed) as the reference the
// differential test holds Cache to.
type refCache struct {
	cfg   Config
	sets  [][]line
	shift uint
	mask  uint64
	tick  int64
	Stats Stats
}

// refNew builds a reference cache from its configuration.
func refNew(cfg Config) (*refCache, error) {
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
	// One backing array for every line, sliced into sets (capped, so a set
	// can never grow into its neighbour): two allocations, not one per set.
	lines := make([]line, nLines)
	c := &refCache{cfg: cfg, sets: make([][]line, nSets)}
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c.shift = shift
	c.mask = uint64(nSets - 1)
	return c, nil
}

// Access looks up (and on miss, fills) the line containing addr.
// write marks the line dirty.
func (c *refCache) Access(addr uint64, write bool) AccessResult {
	c.tick++
	set := c.sets[(addr>>c.shift)&c.mask]
	tag := addr >> c.shift
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

// Probe reports whether addr currently hits, without changing state.
func (c *refCache) Probe(addr uint64) bool {
	set := c.sets[(addr>>c.shift)&c.mask]
	tag := addr >> c.shift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}
