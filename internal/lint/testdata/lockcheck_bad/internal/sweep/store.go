// Package sweep violates the guarded-field contract on purpose: the
// lockcheck fixture.
package sweep

import "sync"

// Store maps job hashes to results.
type Store struct {
	mu    sync.Mutex
	items map[string]int
	n     int

	hint string // deliberately after the blank line: not guarded
}

// Put records a result under the lock.
func (s *Store) Put(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k] = v
	s.n++
}

// Get reads items without the lock: finding.
func (s *Store) Get(k string) int {
	return s.items[k]
}

// size reads n without the lock and without the *Locked suffix: finding.
func (s *Store) size() int {
	return s.n
}

// Hint reads the unguarded field without the lock: clean.
func (s *Store) Hint() string {
	return s.hint
}

// Stats is a justified escape: the racy read is deliberate.
func (s *Store) Stats() int {
	//lint:lockcheck — approximate count only; torn reads are acceptable for monitoring
	return s.n
}
