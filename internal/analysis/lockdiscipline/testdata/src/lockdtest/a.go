// Package lockdtest exercises the lockdiscipline analyzer: guard
// annotations, the xxxLocked caller-holds idiom, and goroutine
// non-inheritance.
package lockdtest

import "sync"

type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (s *S) bad() {
	s.n++ // want `field S.n is guarded by mu but accessed without s.mu held`
}

func touch(s *S) {
	s.n = 1 // want `field S.n is guarded by mu but accessed without s.mu held`
}

func (s *S) good() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

func (s *S) goodDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = 2
}

func (s *S) afterUnlock() {
	s.mu.Lock()
	s.n = 1
	s.mu.Unlock()
	s.n = 2 // want `field S.n is guarded by mu but accessed without s.mu held`
}

func (s *S) earlyReturn(flag bool) {
	s.mu.Lock()
	if flag {
		s.mu.Unlock()
		return
	}
	s.n++ // held: the unlocking branch returned
	s.mu.Unlock()
}

// nLocked relies on its callers: every in-package call site holds s.mu.
func (s *S) nLocked() int { return s.n }

// middleLocked is justified one level deeper: its only caller locks.
func (s *S) middleLocked() int { return s.nLocked() + s.n }

func (s *S) callsLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nLocked()
}

func (s *S) callsLocked2() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.middleLocked()
}

// exposed has no in-package caller holding the lock, so its receiver-based
// access cannot be justified.
func (s *S) exposed() int {
	return s.n // want `field S.n is guarded by mu but accessed without s.mu held \(no dominating Lock in this function or at every caller\)`
}

func (s *S) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.n++ // want `field S.n is guarded by mu but accessed without s.mu held`
	}()
}

func (s *S) waived() int {
	return s.n //lint:allow lockdiscipline read is a monotonic hint, staleness acceptable
}

type Typo struct {
	mu sync.Mutex
	x  int // guarded by mutex // want `guarded-by annotation names "mutex", which is not a field of Typo`
}
