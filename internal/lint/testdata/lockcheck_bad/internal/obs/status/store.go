// Package status violates the concurrency contracts on purpose: the
// lockcheck fixture.
package status

import "sync"

// Store maps job hashes to results.
type Store struct {
	mu    sync.Mutex
	items map[string]int
	n     int

	hint string // deliberately after the blank line: not guarded
}

// Index orders hashes.
type Index struct {
	mu   sync.Mutex
	keys []string
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

// Snapshot copies the mutex through its value receiver: finding.
func (s Store) Snapshot() string {
	return s.hint
}

// Stats is a justified escape: the racy read is deliberate.
func (s *Store) Stats() int {
	//lint:lockcheck — approximate count only; torn reads are acceptable for monitoring
	return s.n
}

// Reload re-enters s.mu through refresh while holding it: deadlock.
func (s *Store) Reload() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refresh()
}

func (s *Store) refresh() {
	s.mu.Lock()
	s.items = map[string]int{}
	s.mu.Unlock()
}

// crossed acquires Store.mu then Index.mu.
func crossed(s *Store, ix *Index) {
	s.mu.Lock()
	ix.mu.Lock()
	ix.keys = append(ix.keys, "h")
	ix.mu.Unlock()
	s.n++
	s.mu.Unlock()
}

// reversed acquires the same mutexes in the opposite order: cycle.
func reversed(s *Store, ix *Index) {
	ix.mu.Lock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	ix.mu.Unlock()
}
