package sched

// Queue is a deterministic min-heap of events ordered by (At, insertion
// sequence), the Wheel's parity reference: the wheel tests require both to
// pop the same (At, payload) sequence.  The zero value is ready to use.
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

type item[T any] struct {
	at      int64
	seq     uint64
	payload T
}

// less orders the heap: earlier cycle first, then earlier insertion.
func (a item[T]) less(b item[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return len(q.items) }

// MinAt returns the cycle of the earliest event; callers must check
// Len() > 0 first.
func (q *Queue[T]) MinAt() int64 { return q.items[0].at }

// Push schedules a payload for cycle at.
func (q *Queue[T]) Push(at int64, payload T) {
	q.items = append(q.items, item[T]{at: at, seq: q.seq, payload: payload})
	q.seq++
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event's payload and cycle; callers
// must check Len() > 0 first.
func (q *Queue[T]) Pop() (int64, T) {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	var zero item[T]
	q.items[n] = zero // release payload references for the GC
	q.items = q.items[:n]
	if n > 0 {
		q.down(0)
	}
	return top.at, top.payload
}

// Reset empties the queue, retaining the backing array.
func (q *Queue[T]) Reset() {
	var zero item[T]
	for i := range q.items {
		q.items[i] = zero
	}
	q.items = q.items[:0]
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.items[i].less(q.items[p]) {
			return
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.items[l].less(q.items[small]) {
			small = l
		}
		if r < n && q.items[r].less(q.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.items[i], q.items[small] = q.items[small], q.items[i]
		i = small
	}
}
