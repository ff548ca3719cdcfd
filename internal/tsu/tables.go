package tsu

import (
	"sync"

	"tflux/internal/core"
)

// Tables is the frozen, shareable half of a State: the dense thread and
// arc tables, built once per program identity, plus a pool of States over
// them — the compile-once/run-many split. A pooled State loads each Block
// by the Inlet's TSU-load, as any State does, into SM arrays it keeps
// across runs.
//
// The thread table is immutable after NewTables returns, so one Tables may
// back many States across goroutines; each State keeps its own mutable SM
// half (current block, remaining count, per-kernel counts, stats).
type Tables struct {
	prog    *core.Program
	kernels int
	infos   []tmplInfo

	// free is a capped pool of Reset States for Acquire/Release; the
	// mutex only guards the pool, never the tables themselves.
	mu   sync.Mutex
	free []*State
}

// maxPooledStates caps Tables.free: beyond it, Released States are left
// to the GC. Sized for a daemon's MaxPrograms worth of concurrency.
const maxPooledStates = 16

// NewTables validates the program once and freezes the dense thread and
// arc tables every State over it shares.
func NewTables(p *core.Program, kernels int, cfg Config) (*Tables, error) {
	proto, err := NewStateCfg(p, kernels, cfg)
	if err != nil {
		return nil, err
	}
	return &Tables{prog: p, kernels: kernels, infos: proto.infos}, nil
}

// Program returns the program these tables were built for.
func (t *Tables) Program() *core.Program { return t.prog }

// Kernels returns the kernel count the tables distribute over.
func (t *Tables) Kernels() int { return t.kernels }

// Acquire returns a ready-to-run State: a pooled one (Reset, SM backing
// retained so warm block loads allocate nothing) when available, a fresh
// one otherwise. It behaves exactly like a State from NewStateCfg with the
// same program, kernels and config.
func (t *Tables) Acquire() *State {
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		t.mu.Unlock()
		return s
	}
	t.mu.Unlock()
	s := newState(t.prog, t.kernels, t.infos)
	s.tables = t
	return s
}

// Release resets the State and returns it to its Tables' pool (dropped
// when the pool is full or the State did not come from Acquire). The
// caller must not touch the State afterwards.
func (s *State) Release() {
	t := s.tables
	if t == nil {
		return
	}
	s.Reset()
	t.mu.Lock()
	if len(t.free) < maxPooledStates {
		t.free = append(t.free, s)
	}
	t.mu.Unlock()
}

// Reset rewinds the mutable half to the just-constructed state so the
// same State can run its program again. The SM backing arrays are kept
// for reuse; the frozen tables are untouched. Only valid between runs —
// never while a driver holds the State.
func (s *State) Reset() {
	s.curBlock = -1
	s.remaining = 0
	s.loaded = false
	s.done = false
	s.linearSearch = false
	s.searchSteps = 0
	per := s.stats.PerKernel
	for i := range per {
		per[i] = 0
	}
	s.stats = Stats{PerKernel: per}
}
