// Package vtime models TFluxSoft as a simulated machine: the deterministic
// event-driven machine of package hardsim, configured with the overhead
// constants of a *software* TSU instead of a hardware one. DThread bodies
// run natively (once, in dataflow order), so every output is real and
// verifiable; time comes only from each instance's Cost model and its
// access-table row on the default cache model, as in Figure 5, so a run
// repeats cycle for cycle on any host. TFluxCell's virtual machine is
// cellsim.RunVirtual, next to the Local Store rules it prices.
//
// Why this exists: the paper's Figure 6 is a native wall-clock measurement
// on an 8-core Xeon. A host with fewer CPUs than kernels plus the TSU
// emulator cannot show its parallel speedup, and a wall-clock run does not
// repeat. The model keeps the effects the paper reports for the software
// platform: per-DThread TSU overhead that makes fine unrolling lose, and
// the serialized TSU emulator. One cycle is one nanosecond.
package vtime

import (
	"time"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/sim"
)

// Config sizes the virtual TFluxSoft.
type Config struct {
	// Kernels is the number of compute workers. Zero selects 1.
	Kernels int
}

// The software TSU's fixed costs: tsuOp is the emulator's processing time
// per command (drain, decrement batch, dispatch); handoff is the kernel↔TSU
// transfer, a TUB push.
const (
	tsuOp   = 1500 * time.Nanosecond
	handoff = 300 * time.Nanosecond
)

// Machine returns the hardsim machine that models a software TSU with
// cfg.Kernels kernels, pricing each body's memory trace on the default
// cache model.
func Machine(cfg Config) hardsim.Config {
	return hardsim.Config{
		Cores:       cfg.Kernels,
		TSULat:      sim.Time(tsuOp.Nanoseconds()),
		MMILat:      sim.Time(handoff.Nanoseconds()),
		DecLat:      sim.Time(100), // per ready-count update, ns
		ServiceCost: sim.Time(tsuOp.Nanoseconds()),
	}
}

// Result is the virtual-time outcome.
type Result struct {
	Makespan time.Duration // modeled parallel execution time
}

// Run executes the program's bodies natively (producing their real
// outputs) on cfg's Machine and returns the modeled parallel makespan.
func Run(p *core.Program, cfg Config) (*Result, error) {
	res, err := hardsim.Run(p, Machine(cfg))
	if err != nil {
		return nil, err
	}
	return &Result{Makespan: time.Duration(res.Cycles)}, nil
}
