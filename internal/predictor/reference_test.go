package predictor

import (
	"fmt"

	"repro/internal/core"
)

// refStoreSet is the store-set predictor as it was before its tables treated
// zero as empty: the SSIT and LFST are filled with -1 and core.NoDynRef on New and
// on every cyclic clear, and the LFST has one entry per SSIT entry.  It is
// kept verbatim (only identifiers renamed) as the reference the
// differential test holds StoreSet to.
//
// It is the Chrysos & Emer store-set dependence predictor: the SSIT
// maps static loads and stores to store-set IDs; the LFST tracks the last
// fetched, not-yet-executed store of each set.  A load whose set has an
// outstanding store waits for that specific store.
//
// Simplification vs. the original: stores within a set are not serialised
// against each other (store-store ordering existed to keep the D-cache
// write order simple, which this LSQ does not need).
type refStoreSet struct {
	cfg      Config
	ssit     []int32 // PC hash -> SSID, -1 invalid
	lfst     []core.DynRef
	events   int64
	nextSSID int32

	// Stats.
	Merges    int64 // violation-driven set assignments
	Clears    int64
	LoadWaits int64 // loads told to wait
	LoadFrees int64 // loads told to go
}

// refNew builds a reference predictor.
func refNew(cfg Config) (*refStoreSet, error) {
	if cfg.SSITSize <= 0 || cfg.SSITSize&(cfg.SSITSize-1) != 0 {
		return nil, fmt.Errorf("predictor: SSIT size %d is not a power of two", cfg.SSITSize)
	}
	s := &refStoreSet{
		cfg:  cfg,
		ssit: make([]int32, cfg.SSITSize),
		lfst: make([]core.DynRef, cfg.SSITSize),
	}
	s.clear()
	return s, nil
}

// refMustNew is refNew that panics on error.
func refMustNew(cfg Config) *refStoreSet {
	s, err := refNew(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *refStoreSet) clear() {
	for i := range s.ssit {
		s.ssit[i] = -1
		s.lfst[i] = core.NoDynRef
	}
	s.nextSSID = 0
}

func (s *refStoreSet) index(pc PC) int {
	h := uint32(pc) * 2654435761
	return int(h) & (len(s.ssit) - 1)
}

func (s *refStoreSet) tick() {
	s.events++
	if s.cfg.ClearInterval > 0 && s.events%s.cfg.ClearInterval == 0 {
		s.clear()
		s.Clears++
	}
}

// StoreFetched records that a dynamic store instance entered the window.
// Call at block map time for every store in the block.
func (s *refStoreSet) StoreFetched(pc PC, ref core.DynRef) {
	s.tick()
	i := s.index(pc)
	if ssid := s.ssit[i]; ssid >= 0 {
		s.lfst[int(ssid)&(len(s.lfst)-1)] = ref
	}
}

// StoreDone records that a dynamic store instance executed (its address is
// known) or left the window; the set's LFST entry is cleared if it still
// names this instance.
func (s *refStoreSet) StoreDone(pc PC, ref core.DynRef) {
	i := s.index(pc)
	if ssid := s.ssit[i]; ssid >= 0 {
		li := int(ssid) & (len(s.lfst) - 1)
		if s.lfst[li] == ref {
			s.lfst[li] = core.NoDynRef
		}
	}
}

// LoadDependence returns the dynamic store the load should wait for, or
// core.NoDynRef if the load may issue immediately.  Call when the load's address
// becomes ready.
func (s *refStoreSet) LoadDependence(pc PC) core.DynRef {
	s.tick()
	i := s.index(pc)
	ssid := s.ssit[i]
	if ssid < 0 {
		s.LoadFrees++
		return core.NoDynRef
	}
	ref := s.lfst[int(ssid)&(len(s.lfst)-1)]
	if ref.Valid() {
		s.LoadWaits++
	} else {
		s.LoadFrees++
	}
	return ref
}

// Violation trains the predictor on a detected load-store ordering
// violation, merging the load's and store's sets per the store-set
// assignment rules.
func (s *refStoreSet) Violation(loadPC, storePC PC) {
	s.tick()
	s.Merges++
	li, si := s.index(loadPC), s.index(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls < 0 && ss < 0:
		ssid := s.nextSSID
		s.nextSSID = (s.nextSSID + 1) & int32(len(s.ssit)-1)
		s.ssit[li], s.ssit[si] = ssid, ssid
	case ls >= 0 && ss < 0:
		s.ssit[si] = ls
	case ls < 0 && ss >= 0:
		s.ssit[li] = ss
	default:
		// Both assigned: the smaller SSID wins (declining-order rule).
		if ls < ss {
			s.ssit[si] = ls
		} else {
			s.ssit[li] = ss
		}
	}
}
