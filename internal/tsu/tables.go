package tsu

import (
	"sync"

	"tflux/internal/core"
)

// Tables is the frozen, shareable half of a State: the dense template
// and arc tables plus a per-block snapshot of the initial Synchronization
// Memory contents. Where NewState recomputes in-degrees and reallocates
// the SM count slices on every Inlet, a State built from Tables restores
// them by memcpy from the snapshot — the compile-once/run-many split: one
// Tables per program identity, any number of concurrent or sequential
// States over it.
//
// Everything inside Tables is immutable after NewTables returns, so one
// Tables may back many States across goroutines; each State keeps its own
// mutable SM half (current block, remaining count, per-kernel counts,
// stats).
type Tables struct {
	prog        *core.Program
	kernels     int
	infos       []tmplInfo
	serviceBase core.ThreadID
	snaps       []blockSnap

	// free is a capped pool of Reset States for Acquire/Release; the
	// mutex only guards the pool, never the tables themselves.
	mu   sync.Mutex
	free []*State
}

// maxPooledStates caps Tables.free: beyond it, Released States are left
// to the GC. Sized for a daemon's MaxPrograms worth of concurrency.
const maxPooledStates = 16

// blockSnap is the frozen initial SM image of one DDM Block: exactly the
// counts, bases and source instances inletDone computes, captured once.
type blockSnap struct {
	total     int64
	templates int
	// counts[k][di] and base[k][di] are kernel k's initial Ready Count
	// slice and first-owned-context base for dense template di.
	counts [][][]int32
	base   [][]core.Context
	// sources are the Ready-Count-zero instances the Inlet surfaces, in
	// the exact order inletDone emits them, owners resolved.
	sources []Ready
	// firedPerKernel is the Stats.PerKernel increment the sources carry.
	firedPerKernel []int64
}

// NewTables validates the program once and freezes every table a State
// needs: the dense thread/arc tables and the per-block initial-SM
// snapshots.
func NewTables(p *core.Program, kernels int, cfg Config) (*Tables, error) {
	proto, err := NewStateCfg(p, kernels, cfg)
	if err != nil {
		return nil, err
	}
	t := &Tables{
		prog:        proto.prog,
		kernels:     proto.kernels,
		infos:       proto.infos,
		serviceBase: proto.serviceBase,
		snaps:       make([]blockSnap, len(p.Blocks)),
	}
	// Drive the prototype's own inletDone through the blocks so the
	// snapshots are the load path's output by construction, not a
	// re-implementation of it.
	for bi := range p.Blocks {
		sources := proto.inletDone(nil, bi)
		sn := &t.snaps[bi]
		sn.total = proto.remaining
		sn.templates = len(p.Blocks[bi].Templates)
		sn.counts = make([][][]int32, kernels)
		sn.base = make([][]core.Context, kernels)
		for k := range proto.sms {
			m := &proto.sms[k]
			sn.base[k] = append([]core.Context(nil), m.base...)
			sn.counts[k] = make([][]int32, len(m.counts))
			for di, c := range m.counts {
				if c != nil {
					sn.counts[k][di] = append([]int32(nil), c...)
				}
			}
		}
		sn.sources = append([]Ready(nil), sources...)
		sn.firedPerKernel = make([]int64, kernels)
		for _, rd := range sources {
			sn.firedPerKernel[int(rd.Kernel)]++
		}
		// Unload without running the Outlet (remaining is still full):
		// the prototype never executes, it only renders snapshots.
		proto.loaded = false
		for k := range proto.sms {
			proto.sms[k].counts = nil
			proto.sms[k].base = nil
		}
	}
	return t, nil
}

// Program returns the program these tables were built for.
func (t *Tables) Program() *core.Program { return t.prog }

// Kernels returns the kernel count the tables distribute over.
func (t *Tables) Kernels() int { return t.kernels }

// NewState builds a fresh mutable half over the frozen tables. The
// returned State behaves exactly like one from NewStateCfg with the same
// program/kernels/config, except block loads restore the SMs by memcpy
// from the snapshot instead of recomputing in-degrees.
func (t *Tables) NewState() *State {
	s := &State{
		prog:        t.prog,
		kernels:     t.kernels,
		infos:       t.infos,
		serviceBase: t.serviceBase,
		tables:      t,
		curBlock:    -1,
		sms:         make([]sm, t.kernels),
	}
	s.stats.PerKernel = make([]int64, t.kernels)
	return s
}

// Acquire returns a ready-to-run State: a pooled one (Reset, SM backing
// retained so warm block loads allocate nothing) when available, a fresh
// one otherwise.
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
	return t.NewState()
}

// Release resets the State and returns it to its Tables' pool (dropped
// when the pool is full or the State was not built from Tables). The
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

// inletLoadSnapshot is inletDone's warm path: restore block blk's SM
// image by memcpy from the frozen snapshot, reusing the State's own
// backing slices, and surface the pre-resolved source instances.
func (s *State) inletLoadSnapshot(dst []Ready, blk int) []Ready {
	sn := &s.tables.snaps[blk]
	s.remaining = sn.total
	nT := sn.templates
	for k := range s.sms {
		m := &s.sms[k]
		if cap(m.counts) >= nT {
			m.counts = m.counts[:nT]
		} else {
			m.counts = make([][]int32, nT)
		}
		if cap(m.base) >= nT {
			m.base = m.base[:nT]
		} else {
			m.base = make([]core.Context, nT)
		}
		copy(m.base, sn.base[k])
		for di := 0; di < nT; di++ {
			src := sn.counts[k][di]
			if src == nil {
				m.counts[di] = nil
				continue
			}
			c := m.counts[di]
			if cap(c) >= len(src) {
				c = c[:len(src)]
			} else {
				c = make([]int32, len(src))
			}
			copy(c, src)
			m.counts[di] = c
		}
	}
	s.stats.Fired += int64(len(sn.sources))
	for k, n := range sn.firedPerKernel {
		s.stats.PerKernel[k] += n
	}
	return append(dst, sn.sources...)
}
