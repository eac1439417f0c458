package predictor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestStoreSetMatchesReference drives StoreSet and the reference predictor
// (tables filled with -1 and core.NoDynRef) with the same fixed-seed random
// StoreFetched/StoreDone/Violation/LoadDependence streams.  Every
// LoadDependence answer, the statistics and the decoded tables must agree
// after every event.  The SSITs are small and cleared often, so sets merge
// and cyclic clears land mid-stream.  In the "wrap" streams each
// violation's load and store share a PC, so every new set takes exactly one
// SSIT entry and the predictor hands out every SSID and wraps the next one
// to 0 before the table is cleared.
func TestStoreSetMatchesReference(t *testing.T) {
	cases := []struct {
		cfg  Config
		wrap bool
	}{
		{Config{SSITSize: 16, ClearInterval: 0}, false},
		{Config{SSITSize: 16, ClearInterval: 97}, false},
		{Config{SSITSize: 64, ClearInterval: 1000}, false},
		{Config{SSITSize: 16, ClearInterval: 400}, true},
		{Config{SSITSize: 32, ClearInterval: 0}, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("ssit%d-clear%d-wrap=%v/seed%d", tc.cfg.SSITSize, tc.cfg.ClearInterval, tc.wrap, seed)
			t.Run(name, func(t *testing.T) { compareStoreSet(t, tc.cfg, tc.wrap, seed) })
		}
	}
}

func compareStoreSet(t *testing.T, cfg Config, wrap bool, seed int64) {
	s, ref := MustNew(cfg), refMustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	// The SSIT hash keeps the low bits of a PC's instruction index, so the
	// indices span 64 to reach every entry of the tables used here.
	randPC := func() PC { return MakePC(rng.Intn(6), rng.Intn(64)) }
	// Fetched stores not yet done, so that StoreDone names real instances,
	// sometimes after a newer instance of the same store has replaced them.
	type store struct {
		pc  PC
		ref core.DynRef
	}
	var pending []store
	seq := int64(0)
	wraps, waits := 0, 0
	for op := 0; op < 20000; op++ {
		var what string
		switch r := rng.Intn(10); {
		case r < 3:
			seq += int64(rng.Intn(3))
			st := store{randPC(), core.DynRef{Seq: seq, LSID: int8(rng.Intn(32))}}
			if rng.Intn(50) == 0 {
				st.ref = core.NoDynRef
			}
			s.StoreFetched(st.pc, st.ref)
			ref.StoreFetched(st.pc, st.ref)
			pending = append(pending, st)
			what = fmt.Sprintf("StoreFetched(%v, %+v)", st.pc, st.ref)
		case r < 5 && len(pending) > 0:
			i := rng.Intn(len(pending))
			st := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			s.StoreDone(st.pc, st.ref)
			ref.StoreDone(st.pc, st.ref)
			what = fmt.Sprintf("StoreDone(%v, %+v)", st.pc, st.ref)
		case r < 6:
			load, st := randPC(), randPC()
			if wrap {
				st = load
			}
			before := s.nextSSID
			s.Violation(load, st)
			ref.Violation(load, st)
			if s.nextSSID == 0 && before == int32(cfg.SSITSize-1) {
				wraps++
			}
			what = fmt.Sprintf("Violation(%v, %v)", load, st)
		default:
			p := randPC()
			got, want := s.LoadDependence(p), ref.LoadDependence(p)
			if got != want {
				t.Fatalf("op %d: LoadDependence(%v) = %+v, reference %+v", op, p, got, want)
			}
			if got.Valid() {
				waits++
			}
			what = fmt.Sprintf("LoadDependence(%v)", p)
		}
		if err := sameStoreSet(s, ref); err != nil {
			t.Fatalf("op %d, after %s: %v", op, what, err)
		}
	}
	if waits == 0 || s.Merges == 0 || (cfg.ClearInterval > 0 && s.Clears == 0) {
		t.Fatalf("stream too weak: %d waits, %d merges, %d clears", waits, s.Merges, s.Clears)
	}
	if wrap && wraps == 0 {
		t.Fatal("wrap stream never wrapped the next SSID")
	}
}

// sameStoreSet compares the statistics and the decoded tables.  LFST
// entries past the highest SSID StoreSet has handed out must be empty in
// the reference.
func sameStoreSet(s *StoreSet, ref *refStoreSet) error {
	if s.Merges != ref.Merges || s.Clears != ref.Clears || s.LoadWaits != ref.LoadWaits || s.LoadFrees != ref.LoadFrees {
		return fmt.Errorf("stats (merges, clears, waits, frees) = (%d, %d, %d, %d), reference (%d, %d, %d, %d)",
			s.Merges, s.Clears, s.LoadWaits, s.LoadFrees, ref.Merges, ref.Clears, ref.LoadWaits, ref.LoadFrees)
	}
	if s.nextSSID != ref.nextSSID {
		return fmt.Errorf("next SSID %d, reference %d", s.nextSSID, ref.nextSSID)
	}
	for i, v := range s.ssit {
		if v-1 != ref.ssit[i] {
			return fmt.Errorf("SSIT[%d] holds SSID %d, reference %d", i, v-1, ref.ssit[i])
		}
	}
	for i, want := range ref.lfst {
		got := core.NoDynRef
		if i < len(s.lfst) {
			got = s.lfst[i]
			got.Seq--
		}
		if got != want {
			return fmt.Errorf("LFST[%d] = %+v, reference %+v", i, got, want)
		}
	}
	return nil
}
