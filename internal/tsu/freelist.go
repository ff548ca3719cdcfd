package tsu

import "sync"

// FreeList is the one way a run's grown objects are recycled: whole
// States, TUBs, and package rts's run scratch each come from one. It is a
// mutex-guarded stack, bounded in entries and in entry size, and unlike a
// sync.Pool it keeps what it holds across garbage collections, so what a
// warm run allocates does not depend on when the collector last ran. Get
// returns the entry Put last; its user overwrites everything but the
// grown arrays before reading them. The zero value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

const (
	// maxFree caps every FreeList. Each run holds one entry of a list,
	// and a process runs few at once — tfluxd at most MaxPrograms, two per
	// node by default, and a test or benchmark a handful — so 16 covers
	// them without letting a burst pin its entries for good.
	maxFree = 16
	// maxFreeElems turns away an entry whose arrays hold more elements
	// than this, as the dist Fleet's region tables do beyond
	// maxParkedRegions: one enormous program must not pin its high-water
	// mark for the process's lifetime. A list pins at most maxFree entries
	// of this size, however many programs a daemon caches.
	maxFreeElems = 1 << 16
)

// Get takes the entry put back last, or returns nil when the list is
// empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// Put gives x back for a later Get. used counts the elements of the
// arrays x's last run used, and spare those of the arrays x keeps only
// from earlier, wider runs (SMs or segments past its own). x keeps its
// spare arrays while the two together fit maxFreeElems, so runs of
// different widths take turns without regrowing them; past the bound,
// dropSpare lets go of them first, and x is turned away only for what its
// last run used. A full list, or used over maxFreeElems, leaves x to the
// GC. The caller must not touch x afterwards.
func (l *FreeList[T]) Put(x *T, used, spare int, dropSpare func(*T)) {
	if used+spare > maxFreeElems {
		if used > maxFreeElems {
			return
		}
		dropSpare(x)
	}
	l.mu.Lock()
	if len(l.free) < maxFree {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// dropFree empties the lists of States and TUBs, so that the next run
// builds its arrays anew, as the first run in a process does. Only tests
// call it: this package's directly, package rts's by go:linkname, which
// fails to link if it is renamed.
func dropFree() {
	for states.Get() != nil || tubs.Get() != nil {
	}
}
