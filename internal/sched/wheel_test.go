package sched

import (
	"math/rand"
	"testing"
)

// TestWheelMatchesQueue pins the Wheel to the Queue's exact contract: pops
// come out in (At, insertion order), under interleaved pushes and pops with
// cycle gaps large enough to force ring growth.
func TestWheelMatchesQueue(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var q Queue[int]
	var w Wheel[int]
	now := int64(0)
	for step := 0; step < 20000; step++ {
		switch {
		case q.Len() == 0 || r.Intn(3) != 0:
			// Mostly-future pushes with occasional large gaps (beyond the
			// initial 64-bucket window) and occasional past-but-unpopped
			// cycles to exercise early-push handling.
			at := now + int64(r.Intn(200))
			if r.Intn(50) == 0 {
				at = now + int64(1000+r.Intn(5000))
			}
			v := step
			q.Push(at, v)
			w.Push(at, v)
		default:
			qa, qv := q.Pop()
			wa, wv := w.Pop()
			if qa != wa || qv != wv {
				t.Fatalf("step %d: queue popped (%d,%d), wheel popped (%d,%d)", step, qa, qv, wa, wv)
			}
			if qa > now {
				now = qa
			}
			if q.Len() != w.Len() {
				t.Fatalf("step %d: len mismatch queue=%d wheel=%d", step, q.Len(), w.Len())
			}
			if q.Len() > 0 && q.MinAt() != w.MinAt() {
				t.Fatalf("step %d: MinAt mismatch queue=%d wheel=%d", step, q.MinAt(), w.MinAt())
			}
		}
	}
	for q.Len() > 0 {
		qa, qv := q.Pop()
		wa, wv := w.Pop()
		if qa != wa || qv != wv {
			t.Fatalf("drain: queue popped (%d,%d), wheel popped (%d,%d)", qa, qv, wa, wv)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty after drain: %d", w.Len())
	}
}

// TestWheelFIFOWithinCycle pins that many events on one cycle pop in
// insertion order even when that bucket survives a growth rebuild.
func TestWheelFIFOWithinCycle(t *testing.T) {
	var w Wheel[int]
	for i := 0; i < 10; i++ {
		w.Push(5, i)
	}
	w.Push(5000, 99) // forces growth; bucket for cycle 5 moves wholesale
	for i := 0; i < 10; i++ {
		at, v := w.Pop()
		if at != 5 || v != i {
			t.Fatalf("pop %d: got (%d,%d), want (5,%d)", i, at, v, i)
		}
	}
	if at, v := w.Pop(); at != 5000 || v != 99 {
		t.Fatalf("final pop: got (%d,%d), want (5000,99)", at, v)
	}
}

// TestWheelReuse pins that a drained wheel restarts cleanly at an arbitrary
// later cycle (the window re-anchors on the first push of an empty wheel).
func TestWheelReuse(t *testing.T) {
	var w Wheel[string]
	w.Push(3, "a")
	w.Pop()
	w.Push(1<<40, "b")
	w.Push(1<<40+1, "c")
	if at, v := w.Pop(); at != 1<<40 || v != "b" {
		t.Fatalf("got (%d,%q)", at, v)
	}
	if at, v := w.Pop(); at != 1<<40+1 || v != "c" {
		t.Fatalf("got (%d,%q)", at, v)
	}
}

func BenchmarkWheelPushPop(b *testing.B) {
	var w Wheel[int]
	r := rand.New(rand.NewSource(7))
	delays := make([]int64, 1024)
	for i := range delays {
		delays[i] = int64(1 + r.Intn(30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		w.Push(now+delays[i&1023], i)
		if w.Len() > 16 {
			at, _ := w.Pop()
			if at > now {
				now = at
			}
		}
	}
}
