package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTagSourceMonotone(t *testing.T) {
	var s TagSource
	prev := Tag(0)
	for i := 0; i < 1000; i++ {
		tag := s.Next()
		if tag <= prev {
			t.Fatalf("tag %d not greater than %d", tag, prev)
		}
		prev = tag
	}
	if s.Last() != prev {
		t.Errorf("Last() = %d, want %d", s.Last(), prev)
	}
}

func TestSlotFirstDelivery(t *testing.T) {
	var s OperandSlot
	if !s.Deliver(42, 0, true) {
		t.Error("first delivery must trigger execution")
	}
	if !s.Present || s.Value != 42 || s.Tag != 0 || s.Committed {
		t.Errorf("slot = %+v", s)
	}
}

func TestSlotNewerTagWins(t *testing.T) {
	var s OperandSlot
	s.Deliver(1, 0, false)
	if !s.Deliver(2, 5, false) {
		t.Error("newer tag with new value must re-execute")
	}
	if s.Value != 2 || s.Tag != 5 {
		t.Errorf("slot = %+v", s)
	}
	// Stale wave arrives late: dropped.
	if s.Deliver(9, 3, false) {
		t.Error("stale tag must not re-execute")
	}
	if s.Value != 2 || s.Tag != 5 {
		t.Errorf("stale delivery modified slot: %+v", s)
	}
}

func TestSlotEqualTagDifferentValue(t *testing.T) {
	// The same producer re-fires with an unchanged max input tag but a new
	// value (a lower-tagged operand changed); FIFO links deliver the later
	// message later, so it must win.
	var s OperandSlot
	s.Deliver(1, 7, false)
	if !s.Deliver(3, 7, false) {
		t.Error("equal tag, different value must re-execute")
	}
	if s.Value != 3 {
		t.Errorf("slot = %+v", s)
	}
	// Equal tag, same value: idempotent duplicate, dropped.
	if s.Deliver(3, 7, false) {
		t.Error("duplicate must not re-execute")
	}
}

func TestSlotIdenticalValueSuppression(t *testing.T) {
	var s OperandSlot
	s.Deliver(5, 1, true)
	// Newer wave recomputed the same value: suppression stops the wave
	// but the tag still advances.
	if s.Deliver(5, 4, true) {
		t.Error("suppression enabled: identical value must not re-execute")
	}
	if s.Tag != 4 {
		t.Errorf("tag = %d, want 4", s.Tag)
	}
	// With suppression disabled the same delivery re-executes.
	var u OperandSlot
	u.Deliver(5, 1, false)
	if !u.Deliver(5, 4, false) {
		t.Error("suppression disabled: newer tag must re-execute")
	}
}

func TestSlotCommit(t *testing.T) {
	var s OperandSlot
	s.Deliver(10, 2, true)
	// Commit token confirming the held value: no re-execution.
	if s.DeliverCommit(10) {
		t.Error("matching commit must not re-execute")
	}
	if !s.Committed {
		t.Error("slot must be committed")
	}
	// All later data is ignored.
	if s.Deliver(99, 100, false) {
		t.Error("committed slot must ignore data")
	}
	if s.Value != 10 {
		t.Errorf("committed value changed: %+v", s)
	}
}

func TestSlotCommitCorrectsStaleValue(t *testing.T) {
	// The commit token can overtake the final data message (different
	// network path); it must act as data and trigger re-execution.
	var s OperandSlot
	s.Deliver(1, 0, true)
	if !s.DeliverCommit(7) {
		t.Error("commit with new value must re-execute")
	}
	if s.Value != 7 || !s.Committed {
		t.Errorf("slot = %+v", s)
	}
}

func TestSlotCommitOnEmpty(t *testing.T) {
	var s OperandSlot
	if !s.DeliverCommit(7) {
		t.Error("commit into empty slot must install and re-execute")
	}
	if !s.Present || s.Value != 7 {
		t.Errorf("slot = %+v", s)
	}
	if s.DeliverCommit(7) {
		t.Error("second commit must be idempotent")
	}
}

// TestSlotConvergence property: however a sequence of deliveries is
// interleaved, once the delivery carrying the maximum tag has arrived, the
// slot holds that delivery's value (with ties broken by arrival order,
// which the property constructs to be consistent).
func TestSlotConvergence(t *testing.T) {
	f := func(tags []uint8) bool {
		var s OperandSlot
		var maxTag Tag
		var maxVal int64
		for i, raw := range tags {
			tag := Tag(raw)
			val := int64(i) // distinct value per delivery
			s.Deliver(val, tag, false)
			if tag >= maxTag {
				// Equal tags: the later delivery wins (FIFO rule).
				maxTag, maxVal = tag, val
			}
		}
		if len(tags) == 0 {
			return !s.Present
		}
		return s.Present && s.Tag == maxTag && s.Value == maxVal
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSlotCommitIsFinal property: after a commit, no data delivery changes
// the slot.
func TestSlotCommitIsFinal(t *testing.T) {
	f := func(final int64, later []int64) bool {
		var s OperandSlot
		s.DeliverCommit(final)
		for i, v := range later {
			if s.Deliver(v, Tag(i+1000), false) {
				return false
			}
		}
		return s.Value == final && s.Committed
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestSchemeStrings(t *testing.T) {
	if RecoverFlush.String() != "flush" || RecoverDSRE.String() != "dsre" {
		t.Error("recovery scheme names")
	}
	names := map[IssuePolicy]string{
		IssueConservative: "conservative",
		IssueAggressive:   "aggressive",
		IssueStoreSet:     "storeset",
		IssueOracle:       "oracle",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// BenchmarkSlotDeliver measures the per-operand wake-up check, the hottest
// protocol operation.
func BenchmarkSlotDeliver(b *testing.B) {
	var s OperandSlot
	for i := 0; i < b.N; i++ {
		s.Deliver(int64(i), Tag(i), true)
	}
}

func TestDynRefString(t *testing.T) {
	if got := (DynRef{Seq: 3, LSID: 2}).String(); got != "b3.ls2" {
		t.Errorf("String = %q", got)
	}
	if NoDynRef.Valid() || !(DynRef{}).Valid() {
		t.Error("Valid: NoDynRef must be invalid and the zero reference valid")
	}
}
