// Package status holds a concurrency-correct queue: the passing fixture
// for lockcheck, atomiccheck and ctxcheck.
package status

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Queue is a minimal leased-work queue.
type Queue struct {
	mu      sync.Mutex
	pending []string // guarded by mu
	leased  int      // guarded by mu

	served atomic.Int64
}

// Push appends a job under the lock.
func (q *Queue) Push(hash string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, hash)
}

// Lease pops one job, or returns false when idle.
func (q *Queue) Lease() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return "", false
	}
	h := q.pending[0]
	q.pending = q.pending[1:]
	q.leased++
	q.served.Add(1)
	return h, true
}

// sizeLocked reports the backlog.  Callers hold q.mu.
func (q *Queue) sizeLocked() int { return len(q.pending) + q.leased }

// Size snapshots the backlog.
func (q *Queue) Size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sizeLocked()
}

// Served reports jobs handed out, through the atomic API only.
func (q *Queue) Served() int64 { return q.served.Load() }

// Drain polls the queue until empty or cancelled.
func (q *Queue) Drain(ctx context.Context) bool {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if q.Size() == 0 {
				return true
			}
		case <-ctx.Done():
			return false
		}
	}
}
