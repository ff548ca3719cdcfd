package tsu

import (
	"tflux/internal/core"
)

// Tables is the frozen, shareable half of a State: the dense thread and
// arc tables, built once per program identity — the compile-once/run-many
// split. Acquire builds a State over them as NewStateCfg would, without
// validating the program again.
//
// The thread table is immutable after NewTables returns, so one Tables may
// back many States across goroutines; each State keeps its own mutable SM
// half (current block, remaining count, per-kernel counts, stats).
type Tables struct {
	prog    *core.Program
	kernels int
	infos   []tmplInfo
}

// NewTables validates the program once and freezes the dense thread and
// arc tables every State over it shares.
func NewTables(p *core.Program, kernels int, cfg Config) (*Tables, error) {
	infos, err := threadTable(p, kernels, cfg)
	if err != nil {
		return nil, err
	}
	return &Tables{prog: p, kernels: kernels, infos: infos}, nil
}

// Program returns the program these tables were built for.
func (t *Tables) Program() *core.Program { return t.prog }

// Kernels returns the kernel count the tables distribute over.
func (t *Tables) Kernels() int { return t.kernels }

// Acquire returns a ready-to-run State over the tables. It behaves exactly
// like a State from NewStateCfg with the same program, kernels and config,
// and like one it takes a released State's arrays when there is one.
func (t *Tables) Acquire() *State { return newState(t.prog, t.kernels, t.infos) }
