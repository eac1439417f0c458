// Package sched provides the deterministic event scheduler of the
// event-driven simulation core: a calendar queue of payloads keyed by
// (cycle, insertion order).
//
// Two properties matter to the simulator and are pinned by tests:
//
//   - determinism: events scheduled for the same cycle pop in insertion
//     order (FIFO within a cycle), the order of the test-only heap Queue
//     the parity tests compare against;
//   - allocation-freedom in steady state: buckets keep their backing
//     arrays across Push/Pop cycles, so a machine whose event population
//     has reached its high-water mark schedules with zero heap allocations.
package sched

import "repro/internal/bitset"

// Wheel is a calendar queue with the same contract as the test-only heap
// Queue — events pop in (At, insertion order) — but O(1) push and pop
// instead of heap sifting: a power-of-two ring of per-cycle FIFO buckets,
// with a bitset.Ring occupancy mask so advancing to the next scheduled
// cycle is a rotate-and-CLZ instead of a scan.  The zero value is ready to
// use.
//
// The window invariant: every queued At lies in [min, min+size), where size
// is the bucket count.  Within that window the bucket index At&(size-1) is
// collision-free, so each bucket holds events of exactly one cycle and
// FIFO-per-bucket is FIFO-per-cycle.  A push outside the window grows the
// ring until it fits.
type Wheel[T any] struct {
	buckets [][]T
	// at[i] is the cycle bucket i currently holds (valid while occupied).
	at []int64
	// heads[i] indexes the first unpopped event of bucket i; the tail is
	// reset lazily when the bucket empties, retaining its backing array.
	heads []int
	occ   bitset.Ring
	count int
	// min/max bound the queued cycles (valid while count > 0).
	min, max int64
}

// Len returns the number of queued events.
func (w *Wheel[T]) Len() int { return w.count }

// MinAt returns the cycle of the earliest event; callers must check
// Len() > 0 first.
func (w *Wheel[T]) MinAt() int64 { return w.min }

// Push schedules a payload for cycle at.  Pushing a cycle earlier than an
// already-queued one is allowed as long as the spread still fits the window
// (it grows otherwise).
func (w *Wheel[T]) Push(at int64, payload T) {
	if w.buckets == nil {
		w.init(64)
	}
	lo, hi := at, at
	if w.count > 0 {
		if w.min < lo {
			lo = w.min
		}
		if w.max > hi {
			hi = w.max
		}
	}
	if hi-lo >= int64(len(w.buckets)) {
		w.grow(hi - lo + 1)
	}
	i := int(at) & (len(w.buckets) - 1)
	if len(w.buckets[i]) == w.heads[i] {
		w.buckets[i] = w.buckets[i][:0]
		w.heads[i] = 0
		w.at[i] = at
		w.occ.Set(i)
	}
	w.buckets[i] = append(w.buckets[i], payload)
	w.count++
	w.min, w.max = lo, hi
}

// Pop removes and returns the earliest event's payload and cycle; callers
// must check Len() > 0 first.
func (w *Wheel[T]) Pop() (int64, T) {
	i := int(w.min) & (len(w.buckets) - 1)
	b := w.buckets[i]
	payload := b[w.heads[i]]
	var zero T
	b[w.heads[i]] = zero // release payload references for the GC
	w.heads[i]++
	w.count--
	at := w.min
	if w.heads[i] == len(b) {
		w.buckets[i] = b[:0]
		w.heads[i] = 0
		w.occ.Clear(i)
		if w.count > 0 {
			j := w.occ.FirstFrom((i + 1) & (len(w.buckets) - 1))
			w.min = w.at[j]
		}
	}
	return at, payload
}

func (w *Wheel[T]) init(size int) {
	w.buckets = make([][]T, size)
	w.at = make([]int64, size)
	w.heads = make([]int, size)
	w.occ = bitset.NewRing(size)
}

// grow rebuilds the ring with at least `window` buckets.  Occupied buckets
// move wholesale — each holds a single cycle, so intra-cycle FIFO order is
// untouched — and the window invariant makes the new placement
// collision-free.
func (w *Wheel[T]) grow(window int64) {
	size := len(w.buckets)
	for int64(size) < window {
		size <<= 1
	}
	ob, oa, oh := w.buckets, w.at, w.heads
	occ := w.occ
	w.init(size)
	for i := range ob {
		if !occ.Test(i) {
			continue
		}
		j := int(oa[i]) & (size - 1)
		w.buckets[j], w.at[j], w.heads[j] = ob[i], oa[i], oh[i]
		w.occ.Set(j)
	}
}
