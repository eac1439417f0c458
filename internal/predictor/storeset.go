// Package predictor implements the load-store dependence predictors the
// paper compares against: the store-set predictor of Chrysos & Emer (the
// "best dependence predictor proposed to date" referenced in the abstract).
// The perfect oracle is the emulator's dependence table (emu.Oracle), read
// by the load/store queue directly; the trivial conservative and
// aggressive policies need no state and live in the simulator's load-issue
// logic.
package predictor

import (
	"fmt"

	"repro/internal/core"
)

// PC identifies a static instruction: block ID in the high bits, index in
// the low byte.
type PC uint32

// MakePC builds a PC from a block ID and instruction index.
func MakePC(blockID int, instIdx int) PC {
	return PC(uint32(blockID)<<8 | uint32(instIdx)&0xff)
}

// String renders the PC.
func (p PC) String() string { return fmt.Sprintf("b%d.i%d", p>>8, p&0xff) }

// Config sizes the store-set predictor.
type Config struct {
	// SSITSize is the number of Store Set ID Table entries (a power of
	// two); both loads and stores index it by hashed PC.
	SSITSize int
	// ClearInterval invalidates the whole SSIT after this many training
	// events, the cyclic-clearing scheme from the store-set paper that
	// bounds the damage of stale dependences.  Zero disables clearing.
	ClearInterval int64
}

// DefaultConfig mirrors the configuration used in the store-set paper
// scaled to this machine: 16K SSIT entries, cleared every million events.
func DefaultConfig() Config {
	return Config{SSITSize: 16384, ClearInterval: 1 << 20}
}

// StoreSet is the Chrysos & Emer store-set dependence predictor: the SSIT
// maps static loads and stores to store-set IDs; the LFST tracks the last
// fetched, not-yet-executed store of each set.  A load whose set has an
// outstanding store waits for that specific store.
//
// Simplification vs. the original: stores within a set are not serialised
// against each other (store-store ordering existed to keep the D-cache
// write order simple, which this LSQ does not need).
//
// Both tables treat zero as empty, so building and cyclically clearing the
// predictor fill nothing.  SSIDs are handed out in order from 0, masked to
// the SSIT size, and the LFST grows to the highest one handed out.
type StoreSet struct {
	cfg      Config
	ssit     []int32       // PC hash -> SSID+1, 0 invalid
	lfst     []core.DynRef // SSID -> last fetched store with Seq+1, zero = core.NoDynRef
	events   int64
	nextSSID int32

	// Stats.
	Merges    int64 // violation-driven set assignments
	Clears    int64
	LoadWaits int64 // loads told to wait
	LoadFrees int64 // loads told to go
}

// New builds a predictor.
func New(cfg Config) (*StoreSet, error) {
	if cfg.SSITSize <= 0 || cfg.SSITSize&(cfg.SSITSize-1) != 0 {
		return nil, fmt.Errorf("predictor: SSIT size %d is not a power of two", cfg.SSITSize)
	}
	return &StoreSet{cfg: cfg, ssit: make([]int32, cfg.SSITSize)}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *StoreSet {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// lfstEntry is ref as the LFST holds it: Seq+1, so core.NoDynRef is zero.
func lfstEntry(ref core.DynRef) core.DynRef { return core.DynRef{Seq: ref.Seq + 1, LSID: ref.LSID} }

func (s *StoreSet) reset() {
	clear(s.ssit)
	clear(s.lfst)
	s.nextSSID = 0
}

func (s *StoreSet) index(pc PC) int {
	h := uint32(pc) * 2654435761
	return int(h) & (len(s.ssit) - 1)
}

func (s *StoreSet) tick() {
	s.events++
	if s.cfg.ClearInterval > 0 && s.events%s.cfg.ClearInterval == 0 {
		s.reset()
		s.Clears++
	}
}

// StoreFetched records that a dynamic store instance entered the window.
// Call at block map time for every store in the block.
func (s *StoreSet) StoreFetched(pc PC, ref core.DynRef) {
	s.tick()
	if ssid := s.ssit[s.index(pc)]; ssid > 0 {
		s.lfst[ssid-1] = lfstEntry(ref)
	}
}

// StoreDone records that a dynamic store instance executed (its address is
// known) or left the window; the set's LFST entry is cleared if it still
// names this instance.
func (s *StoreSet) StoreDone(pc PC, ref core.DynRef) {
	if ssid := s.ssit[s.index(pc)]; ssid > 0 && s.lfst[ssid-1] == lfstEntry(ref) {
		s.lfst[ssid-1] = core.DynRef{}
	}
}

// LoadDependence returns the dynamic store the load should wait for, or
// core.NoDynRef if the load may issue immediately.  Call when the load's
// address becomes ready.
func (s *StoreSet) LoadDependence(pc PC) core.DynRef {
	s.tick()
	ssid := s.ssit[s.index(pc)]
	if ssid == 0 {
		s.LoadFrees++
		return core.NoDynRef
	}
	ref := s.lfst[ssid-1]
	ref.Seq--
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
func (s *StoreSet) Violation(loadPC, storePC PC) {
	s.tick()
	s.Merges++
	li, si := s.index(loadPC), s.index(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls == 0 && ss == 0:
		ssid := s.nextSSID
		s.nextSSID = (s.nextSSID + 1) & int32(len(s.ssit)-1)
		if int(ssid) == len(s.lfst) { // first time this SSID is handed out
			s.lfst = append(s.lfst, core.DynRef{})
		}
		s.ssit[li], s.ssit[si] = ssid+1, ssid+1
	case ls != 0 && ss == 0:
		s.ssit[si] = ls
	case ls == 0 && ss != 0:
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
