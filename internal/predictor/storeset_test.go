package predictor

import (
	"testing"

	"repro/internal/core"
)

func TestUntrainedLoadIsFree(t *testing.T) {
	s := MustNew(DefaultConfig())
	if ref := s.LoadDependence(MakePC(1, 2)); ref.Valid() {
		t.Fatalf("untrained load waits for %v", ref)
	}
	if s.LoadFrees != 1 {
		t.Errorf("LoadFrees = %d", s.LoadFrees)
	}
}

func TestViolationCreatesDependence(t *testing.T) {
	s := MustNew(DefaultConfig())
	loadPC, storePC := MakePC(3, 7), MakePC(3, 2)
	s.Violation(loadPC, storePC)

	// A new dynamic instance of the store enters the window...
	ref := core.DynRef{Seq: 10, LSID: 1}
	s.StoreFetched(storePC, ref)
	// ...and the load must now wait for exactly that instance.
	if got := s.LoadDependence(loadPC); got != ref {
		t.Fatalf("LoadDependence = %v, want %v", got, ref)
	}
	// Once the store executes, the load is free.
	s.StoreDone(storePC, ref)
	if got := s.LoadDependence(loadPC); got.Valid() {
		t.Fatalf("load still waits for %v", got)
	}
}

func TestStoreDoneClearsOnlyMatchingInstance(t *testing.T) {
	s := MustNew(DefaultConfig())
	loadPC, storePC := MakePC(1, 1), MakePC(1, 0)
	s.Violation(loadPC, storePC)
	first := core.DynRef{Seq: 5, LSID: 0}
	second := core.DynRef{Seq: 6, LSID: 0}
	s.StoreFetched(storePC, first)
	s.StoreFetched(storePC, second) // newer instance overwrites LFST
	s.StoreDone(storePC, first)     // stale completion must not clear it
	if got := s.LoadDependence(loadPC); got != second {
		t.Fatalf("LoadDependence = %v, want %v", got, second)
	}
}

func TestSetMergingRules(t *testing.T) {
	s := MustNew(DefaultConfig())
	l1, st1 := MakePC(1, 4), MakePC(1, 1)
	l2, st2 := MakePC(2, 4), MakePC(2, 1)
	s.Violation(l1, st1) // new set A
	s.Violation(l2, st2) // new set B
	// Cross violation merges: l1 now shares a set with st2.
	s.Violation(l1, st2)
	ref := core.DynRef{Seq: 20, LSID: 3}
	s.StoreFetched(st2, ref)
	dep1 := s.LoadDependence(l1)
	if dep1 != ref {
		t.Fatalf("after merge, l1 waits for %v, want %v", dep1, ref)
	}
	if s.Merges != 3 {
		t.Errorf("Merges = %d", s.Merges)
	}
}

func TestCyclicClearing(t *testing.T) {
	s := MustNew(Config{SSITSize: 256, ClearInterval: 10})
	loadPC, storePC := MakePC(1, 1), MakePC(1, 0)
	s.Violation(loadPC, storePC)
	ref := core.DynRef{Seq: 1, LSID: 0}
	s.StoreFetched(storePC, ref)
	if !s.LoadDependence(loadPC).Valid() {
		t.Fatal("dependence lost before clearing")
	}
	for i := 0; i < 20; i++ {
		s.LoadDependence(MakePC(9, uint8max(i)))
	}
	if s.Clears == 0 {
		t.Fatal("no cyclic clear after interval")
	}
	if s.LoadDependence(loadPC).Valid() {
		t.Fatal("dependence survived clearing")
	}
}

func uint8max(i int) int { return i & 0x7f }

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SSITSize: 100}); err == nil {
		t.Error("non-power-of-two SSIT accepted")
	}
	if _, err := New(Config{SSITSize: 0}); err == nil {
		t.Error("zero SSIT accepted")
	}
}

func TestPCString(t *testing.T) {
	if got := MakePC(5, 17).String(); got != "b5.i17" {
		t.Errorf("PC string = %q", got)
	}
}

// BenchmarkStoreSetOps measures the predictor's per-event cost.
func BenchmarkStoreSetOps(b *testing.B) {
	s := MustNew(DefaultConfig())
	for i := 0; i < b.N; i++ {
		pc := MakePC(i&0xff, i&0x7f)
		switch i % 4 {
		case 0:
			s.StoreFetched(pc, core.DynRef{Seq: int64(i), LSID: 0})
		case 1:
			s.LoadDependence(pc)
		case 2:
			s.StoreDone(pc, core.DynRef{Seq: int64(i - 2), LSID: 0})
		case 3:
			s.Violation(pc, MakePC(i&0xff, (i+1)&0x7f))
		}
	}
}

func TestStrideValuePredictor(t *testing.T) {
	p := NewStrideValue()
	pc := MakePC(1, 4)
	if _, ok := p.Predict(pc); ok {
		t.Fatal("untrained predictor confident")
	}
	// Strided stream: 10, 18, 26, ... — confident after the stride repeats.
	for i, v := range []int64{10, 18, 26, 34} {
		p.Train(pc, v)
		_ = i
	}
	got, ok := p.Predict(pc)
	if !ok || got != 42 {
		t.Fatalf("Predict = %d, %v; want 42, true", got, ok)
	}
	// Last-value behaviour: constant stream locks stride at zero.
	pc2 := MakePC(2, 0)
	for i := 0; i < 4; i++ {
		p.Train(pc2, 7)
	}
	if got, ok := p.Predict(pc2); !ok || got != 7 {
		t.Fatalf("last-value Predict = %d, %v", got, ok)
	}
	// A broken stride loses confidence.
	p.Train(pc, 1000)
	p.Train(pc, 2)
	if _, ok := p.Predict(pc); ok {
		t.Fatal("predictor still confident after erratic values")
	}
}
