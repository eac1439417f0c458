package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// newTestTile builds a bare tileState with a ready ring covering `frames`
// block slots, plus the matching ring index mask — the same wiring New does
// for each real tile.
func newTestTile(frames int) (*tileState, int) {
	t := &tileState{readyBlocks: bitset.NewRing(frames)}
	t.ready = make([]bitset.Mask128, t.readyBlocks.Size())
	return t, t.readyBlocks.Size() - 1
}

// enqueue mirrors enqueueReady's mask bookkeeping for a bare tile.
func (t *tileState) enqueue(seq int64, idx, ringMask int) {
	slot := int(seq) & ringMask
	m := &t.ready[slot]
	if m.Empty() {
		t.readyBlocks.Set(slot)
	}
	m.Set(idx)
	t.readyCount++
}

// reclaim mirrors reclaimReadyBits for one block: every queued bit goes
// through unready at once.
func (t *tileState) reclaim(seq int64, ringMask int) {
	slot := int(seq) & ringMask
	for m := t.ready[slot]; !m.Empty(); {
		i := m.Min()
		m.Clear(i)
		t.unready(slot, i)
	}
}

// TestDequeueOldestFirstAfterReclaim pins the shared dequeue helper's
// contract for both the dense and bitmap paths: a reclaimed (squashed or
// retired) block's entries vanish at once and cost no issue slot, so the
// very next pop is the oldest live entry, and pops come out oldest block
// first, lowest instruction index second — even when the reclaim
// interleaves with live enqueues.
func TestDequeueOldestFirstAfterReclaim(t *testing.T) {
	tl, mask := newTestTile(8)

	// Blocks 10..13 enqueue out of order; block 11 is then squashed
	// between live enqueues.
	tl.enqueue(12, 7, mask)
	tl.enqueue(10, 40, mask)
	tl.enqueue(11, 3, mask)
	tl.enqueue(11, 99, mask)
	tl.enqueue(10, 5, mask)
	tl.reclaim(11, mask)
	tl.enqueue(13, 0, mask)

	if tl.readyCount != 4 {
		t.Fatalf("readyCount = %d after reclaim, want 4", tl.readyCount)
	}
	want := []struct {
		seq int64
		idx int
	}{{10, 5}, {10, 40}, {12, 7}, {13, 0}}
	for i, w := range want {
		seq, idx, ok := tl.dequeueReady(10, mask)
		if !ok || seq != w.seq || idx != w.idx {
			t.Fatalf("pop %d: got (%d,%d) ok=%v, want (%d,%d)", i, seq, idx, ok, w.seq, w.idx)
		}
	}
	if _, _, ok := tl.dequeueReady(10, mask); ok {
		t.Fatal("drained tile still dequeues")
	}
	if tl.readyCount != 0 {
		t.Fatal("drained tile claims issue work")
	}
}

// TestDequeueRingWraparound pins slot indexing when block sequences wrap
// the ready ring: with a 64-slot ring, blocks 62..66 occupy slots
// 62, 63, 0, 1, 2 and must still pop oldest-sequence-first from window
// base 62, including after a mid-range squash reclaims block 64.
func TestDequeueRingWraparound(t *testing.T) {
	tl, mask := newTestTile(8) // ring rounds up to 64 slots
	if mask != 63 {
		t.Fatalf("ring mask = %d, want 63", mask)
	}
	for _, e := range []struct {
		seq int64
		idx int
	}{{66, 1}, {62, 127}, {64, 2}, {63, 0}, {65, 64}} {
		tl.enqueue(e.seq, e.idx, mask)
	}
	tl.reclaim(64, mask)

	want := []struct {
		seq int64
		idx int
	}{{62, 127}, {63, 0}, {65, 64}, {66, 1}}
	for i, w := range want {
		seq, idx, ok := tl.dequeueReady(62, mask)
		if !ok || seq != w.seq || idx != w.idx {
			t.Fatalf("pop %d: got (%d,%d) ok=%v, want (%d,%d)", i, seq, idx, ok, w.seq, w.idx)
		}
	}
}

// TestDequeueFullBlockMask pins the 128-instruction boundary: a block with
// every instruction bit set drains 0..127 in index order, and a single bit
// at each word boundary pops alone.
func TestDequeueFullBlockMask(t *testing.T) {
	tl, mask := newTestTile(4)
	for i := 0; i < 128; i++ {
		tl.enqueue(7, i, mask)
	}
	for i := 0; i < 128; i++ {
		seq, idx, ok := tl.dequeueReady(7, mask)
		if !ok || seq != 7 || idx != i {
			t.Fatalf("full-mask pop %d: got (%d,%d) ok=%v", i, seq, idx, ok)
		}
	}
	for _, bit := range []int{0, 63, 64, 127} {
		tl.enqueue(9, bit, mask)
		seq, idx, ok := tl.dequeueReady(9, mask)
		if !ok || seq != 9 || idx != bit {
			t.Fatalf("single bit %d: got (%d,%d) ok=%v", bit, seq, idx, ok)
		}
	}
}

// TestDequeueMatchesSliceScan fuzzes the bitmap pick-next against a plain
// slice-scan reference scheduler: random interleavings of enqueues, squash
// reclaims, and pops must produce identical issue streams.  The reference
// keeps an unordered entry slice and scans it for min (seq, idx) — the
// associative search the bitmaps replace — and models a reclaim by deleting
// the victim's entries.
func TestDequeueMatchesSliceScan(t *testing.T) {
	type ent struct {
		seq int64
		idx int
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		tl, mask := newTestTile(8)
		var ref []ent
		base := int64(rng.Intn(1000))
		oldest := base
		live := map[int64][]int{} // seq -> enqueued idxs not yet popped
		youngest := base - 1

		popBoth := func() {
			// Reference: min (seq, idx).
			seq, idx, ok := tl.dequeueReady(oldest, mask)
			ri := -1
			for i, e := range ref {
				if ri < 0 || e.seq < ref[ri].seq || (e.seq == ref[ri].seq && e.idx < ref[ri].idx) {
					ri = i
				}
			}
			if (ri >= 0) != ok {
				t.Fatalf("trial %d: ok=%v but reference has %d entries", trial, ok, len(ref))
			}
			if !ok {
				return
			}
			if seq != ref[ri].seq || idx != ref[ri].idx {
				t.Fatalf("trial %d: popped (%d,%d), reference (%d,%d)", trial, seq, idx, ref[ri].seq, ref[ri].idx)
			}
			l := live[seq]
			for i, v := range l {
				if v == idx {
					live[seq] = append(l[:i], l[i+1:]...)
					break
				}
			}
			ref = append(ref[:ri], ref[ri+1:]...)
		}

		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // enqueue on a block within the ring window
				seq := oldest + int64(rng.Intn(8))
				if seq > youngest {
					youngest = seq
				}
				idx := rng.Intn(128)
				dup := false
				for _, v := range live[seq] {
					if v == idx {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				tl.enqueue(seq, idx, mask)
				live[seq] = append(live[seq], idx)
				ref = append(ref, ent{seq: seq, idx: idx})
			case op < 8: // pop
				popBoth()
			default: // squash the youngest block holding entries
				var victim int64 = -1
				for seq, l := range live {
					if len(l) > 0 && seq > victim {
						victim = seq
					}
				}
				if victim < 0 {
					continue
				}
				tl.reclaim(victim, mask)
				kept := ref[:0]
				for _, e := range ref {
					if e.seq != victim {
						kept = append(kept, e)
					}
				}
				ref = kept
				live[victim] = nil
				// The window base may advance past fully-dead blocks; keep
				// it at the oldest block that still has live entries.
				for oldest <= youngest && len(live[oldest]) == 0 {
					oldest++
				}
			}
		}
		for tl.readyCount > 0 {
			popBoth()
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: reference still holds %d entries", trial, len(ref))
		}
	}
}
