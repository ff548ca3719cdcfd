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
	s, err := NewStateCfg(p, kernels, cfg)
	if err != nil {
		return nil, err
	}
	// The State that validated the program is the first one pooled.
	s.tables = &Tables{prog: p, kernels: kernels, infos: s.infos, free: []*State{s}}
	return s.tables, nil
}

// Program returns the program these tables were built for.
func (t *Tables) Program() *core.Program { return t.prog }

// Kernels returns the kernel count the tables distribute over.
func (t *Tables) Kernels() int { return t.kernels }

// Acquire returns a ready-to-run State: a pooled one (Reset, SM backing
// retained so warm block loads allocate nothing) when available, else a
// fresh one over SM arrays from the process-wide pool. It behaves exactly
// like a State from NewStateCfg with the same program, kernels and config.
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

// Release ends the State's use. A State from Acquire is Reset and goes
// back to its Tables' pool, SM arrays and all. Any other State — or one
// the full pool turns away — gives its SM arrays to the process-wide pool
// every new State draws from, and is left to the GC. Call it once the
// run's stats are read and no driver holds the State: the caller must not
// touch the State afterwards.
func (s *State) Release() {
	if t := s.tables; t != nil {
		s.Reset()
		t.mu.Lock()
		if len(t.free) < maxPooledStates {
			t.free = append(t.free, s)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	a := s.backing
	a.sms, a.deg = s.sms, s.deg
	s.sms, s.deg, s.backing = nil, nil, nil
	smPool.Put(a)
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
