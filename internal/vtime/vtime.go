// Package vtime models the software platforms as simulated machines:
// TFluxSoft and TFluxCell run as the deterministic event-driven machine of
// package hardsim, configured with the overhead constants of a *software*
// TSU instead of a hardware one. DThread bodies run natively (once, in
// dataflow order), so every output is real and verifiable; time comes only
// from each instance's Cost model and its access-table row, as in
// Figure 5, so a run repeats cycle for cycle on any host.
//
// Why this exists: the paper's Figures 6 and 7 are native wall-clock
// measurements on an 8-core Xeon and a PlayStation 3. A host with fewer
// CPUs than kernels plus the TSU emulator cannot show their parallel
// speedup, and a wall-clock run does not repeat. The model keeps the
// effects the paper reports for the software platforms: per-DThread TSU
// overhead that makes fine unrolling lose, the serialized TSU emulator,
// and DMA cost proportional to staged bytes. One cycle is one nanosecond.
package vtime

import (
	"time"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/sim"
)

// Config selects the virtual platform.
type Config struct {
	// Kernels is the number of compute workers (TFluxSoft kernels or
	// Cell SPEs). Zero selects 1.
	Kernels int
	// Cell selects the Cell overhead profile and charges DMA staging.
	Cell bool
}

// The software TSU's fixed costs, one row per platform profile. tsuOp is
// the emulator's processing time per command (drain, decrement batch,
// dispatch); handoff is the kernel↔TSU transfer (TUB push on TFluxSoft,
// mailbox read on TFluxCell).
const (
	softTSUOp   = 1500 * time.Nanosecond
	softHandoff = 300 * time.Nanosecond
	// The Cell's PPE emulator pays a mailbox + CommandBuffer polling
	// round per command.
	cellTSUOp   = 4 * time.Microsecond
	cellHandoff = time.Microsecond
)

// The Cell DMA staging model: a fixed setup per transfer of at most
// dmaChunk bytes, plus the bytes at dmaBytesPerNS (8 GB/s effective).
// dmaChunk is the Cell's 16 KiB DMA limit, the same value cellsim uses;
// vtime keeps its own copy because it must not import cellsim.
const (
	dmaSetup      = time.Microsecond
	dmaBytesPerNS = 8
	dmaChunk      = 16 << 10
)

// Machine returns the hardsim machine that models a software TSU on
// cfg's platform. The soft profile prices each body's memory trace on the
// default cache model. A Cell SPE reads only its Local Store, so the Cell
// profile's memory costs nothing and Run charges DMA staging instead.
func Machine(cfg Config) hardsim.Config {
	tsuOp, handoff := softTSUOp, softHandoff
	var m mem.Config
	if cfg.Cell {
		tsuOp, handoff, m = cellTSUOp, cellHandoff, freeMem()
	}
	return hardsim.Config{
		Cores:       cfg.Kernels,
		TSULat:      sim.Time(tsuOp.Nanoseconds()),
		MMILat:      sim.Time(handoff.Nanoseconds()),
		DecLat:      sim.Time(100), // per ready-count update, ns
		ServiceCost: sim.Time(tsuOp.Nanoseconds()),
		Mem:         m,
	}
}

// Result is the virtual-time outcome.
type Result struct {
	Makespan time.Duration // modeled parallel execution time
	DMA      time.Duration // modeled staging time (Cell only)
}

// Run executes the program's bodies natively (producing their real
// outputs) on cfg's Machine and returns the modeled parallel makespan.
func Run(p *core.Program, cfg Config) (*Result, error) {
	var dma time.Duration
	if cfg.Cell {
		p = staged(p, &dma)
	}
	res, err := hardsim.Run(p, Machine(cfg))
	if err != nil {
		return nil, err
	}
	return &Result{Makespan: time.Duration(res.Cycles), DMA: dma}, nil
}

// freeMem returns a cache configuration whose accesses cost nothing (the
// geometry must still be valid).
func freeMem() mem.Config {
	return mem.Config{
		L1:     mem.CacheConfig{Size: 4 << 10, Line: 64, Ways: 1, ReadLat: 0, WriteLat: 0},
		L2:     mem.CacheConfig{Size: 64 << 10, Line: 64, Ways: 1, ReadLat: 0, WriteLat: 0},
		MemLat: 0, C2CLat: 0, BusLat: 0,
	}
}

// staged returns a shallow copy of p for the Cell profile: each template's
// Cost also charges the DMA time of staging its instance's access-table
// row through the Local Store, and adds it to *dma. The copy declares no
// Access model, so the machine replays no memory trace of its own.
func staged(p *core.Program, dma *time.Duration) *core.Program {
	rows := p.AccessTable()
	out := core.NewProgram(p.Name)
	out.Buffers = p.Buffers
	for _, b := range p.Blocks {
		ob := out.AddBlock()
		for _, t := range b.Templates {
			nt := *t
			nt.Access = nil
			nt.Cost = func(ctx core.Context) int64 {
				d := dmaTime(rows.Row(core.Instance{Thread: t.ID, Ctx: ctx}))
				*dma += d
				ns := d.Nanoseconds()
				if t.Cost != nil {
					ns += t.Cost(ctx)
				}
				return ns
			}
			ob.Add(&nt)
		}
	}
	return out
}

// dmaTime models staging every declared region through the Local Store:
// a fixed setup per DMA transfer plus the bytes at the staging bandwidth.
func dmaTime(regs []core.MemRegion) time.Duration {
	var total time.Duration
	for _, r := range regs {
		if r.Size <= 0 {
			continue
		}
		transfers := (r.Size + dmaChunk - 1) / dmaChunk
		total += time.Duration(transfers) * dmaSetup
		total += time.Duration(float64(r.Size) / dmaBytesPerNS)
	}
	return total
}
