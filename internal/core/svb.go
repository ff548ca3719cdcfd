package core

import (
	"fmt"
	"sort"
)

// InBounds reports whether the n bytes at off lie inside a buffer of
// size bytes. It is the one region bounds predicate in the repository:
// n is compared with the space remaining after off, so no int64 — a
// hostile frame's Offset near MaxInt64 included — can wrap it.
func InBounds(off, n, size int64) bool {
	return off >= 0 && n >= 0 && off <= size && n <= size-off
}

// SharedVariableBuffer is the main-memory area through which DThreads
// exchange shared variable values (paper §4.3): a registry of the named
// byte buffers backing the program's Buffer declarations. TFluxCell
// stages regions of it through the SPE Local Stores, TFluxDist keeps the
// canonical copy at the coordinator and a replica per worker, and every
// tfluxd session owns one carved from the arena.
type SharedVariableBuffer struct {
	bufs map[string][]byte
}

// NewSharedVariableBuffer returns an empty registry.
func NewSharedVariableBuffer() *SharedVariableBuffer {
	return &SharedVariableBuffer{bufs: make(map[string][]byte)}
}

// Register binds a named buffer to its backing bytes. Re-registering a
// name replaces the binding.
func (s *SharedVariableBuffer) Register(name string, data []byte) {
	s.bufs[name] = data
}

// Bytes returns the backing slice for name, or nil.
func (s *SharedVariableBuffer) Bytes(name string) []byte { return s.bufs[name] }

// Names returns the registered buffer names in sorted order — the
// enumeration worker-side replica recycling snapshots and restores.
func (s *SharedVariableBuffer) Names() []string {
	out := make([]string, 0, len(s.bufs))
	for name := range s.bufs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Covers checks that the registry holds every declared buffer at no less
// than its declared size — what each platform requires of it before
// running a program over it.
func (s *SharedVariableBuffer) Covers(decls []Buffer) error {
	for _, b := range decls {
		if got := s.bufs[b.Name]; int64(len(got)) < b.Size {
			return fmt.Errorf("buffer %q registered with %d bytes, program declares %d", b.Name, len(got), b.Size)
		}
	}
	return nil
}

// Slice resolves the n bytes at off of a named buffer. The result aliases
// the registered bytes and its capacity stops at the region's end, so an
// append through it cannot reach the neighbouring bytes. An unregistered
// buffer or a region that fails InBounds is an error; errors are built
// only on that path.
func (s *SharedVariableBuffer) Slice(buffer string, off, n int64) ([]byte, error) {
	b, ok := s.bufs[buffer]
	if !ok {
		return nil, fmt.Errorf("region references unregistered buffer %q", buffer)
	}
	if !InBounds(off, n, int64(len(b))) {
		return nil, fmt.Errorf("region [%d,+%d) outside buffer %q (%d bytes)", off, n, buffer, len(b))
	}
	return b[off : off+n : off+n], nil
}
