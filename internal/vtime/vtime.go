// Package vtime executes DDM programs in virtual time: DThread bodies run
// natively (once, in dataflow order) and are timed individually; the
// parallel makespan is then computed by the deterministic event-driven
// machine model of package hardsim, configured with the overhead constants
// of a *software* TSU instead of a hardware one.
//
// Why this exists: the paper's Figures 6 and 7 are native wall-clock
// measurements on an 8-core Xeon and a PlayStation 3. On a single-core
// host real parallel speedup cannot be observed at all — every wall-clock
// "speedup" measures scheduling noise around 1.0×. Virtual time replaces
// the missing hardware: per-DThread durations are real measured work, and
// the schedule (per-kernel ready queues, the serializing TSU-emulator
// loop, per-command processing cost, Cell DMA staging time) is simulated
// exactly like TFluxHard but at nanosecond granularity with
// software-plausible constants. The model preserves the effects the paper
// reports for the software platforms: per-DThread TSU overhead that makes
// fine unrolling lose (TFluxSoft needs unroll ≥16, TFluxCell ~64), the
// serialized TSU emulator, and DMA cost proportional to staged bytes.
//
// The experiment harness uses wall-clock measurement when the host has
// multiple CPUs and falls back to virtual time on single-CPU hosts (or on
// request).
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

// machine returns the hardsim configuration that models a software TSU
// on cfg's platform. One virtual cycle is one nanosecond.
func machine(cfg Config) hardsim.Config {
	tsuOp, handoff := softTSUOp, softHandoff
	if cfg.Cell {
		tsuOp, handoff = cellTSUOp, cellHandoff
	}
	return hardsim.Config{
		Cores:       cfg.Kernels,
		TSULat:      sim.Time(tsuOp.Nanoseconds()),
		MMILat:      sim.Time(handoff.Nanoseconds()),
		DecLat:      sim.Time(100), // per ready-count update, ns
		ServiceCost: sim.Time(tsuOp.Nanoseconds()),
		// Bodies carry their real measured memory behaviour already;
		// disable the cycle-level cache model.
		Mem: freeMem(),
	}
}

// Result is the virtual-time outcome.
type Result struct {
	Makespan time.Duration // modeled parallel execution time
	Work     time.Duration // sum of all measured body durations
	DMA      time.Duration // modeled staging time (Cell only)
}

// Run executes the program's bodies natively (producing their real
// outputs) and returns the modeled parallel makespan. One virtual cycle is
// one nanosecond.
func Run(p *core.Program, cfg Config) (*Result, error) {
	shadow, meter := instrument(p, cfg.Cell)
	res, err := hardsim.Run(shadow, machine(cfg))
	if err != nil {
		return nil, err
	}
	return &Result{
		Makespan: time.Duration(res.Cycles),
		Work:     meter.work,
		DMA:      meter.dma,
	}, nil
}

// freeMem returns a cache configuration whose accesses cost nothing (the
// geometry must still be valid). No Access models survive instrumentation,
// so this is belt and braces.
func freeMem() mem.Config {
	return mem.Config{
		L1:     mem.CacheConfig{Size: 4 << 10, Line: 64, Ways: 1, ReadLat: 0, WriteLat: 0},
		L2:     mem.CacheConfig{Size: 64 << 10, Line: 64, Ways: 1, ReadLat: 0, WriteLat: 0},
		MemLat: 0, C2CLat: 0, BusLat: 0,
	}
}

type meter struct {
	work time.Duration
	dma  time.Duration
}

// instrument clones the program so each template's body is timed as it
// executes and its Cost model reports the measured nanoseconds (plus Cell
// DMA staging time derived from the template's Access model). hardsim
// invokes Body and then Cost for the same instance within one event, so a
// single last-measurement slot per template is race-free.
func instrument(p *core.Program, cell bool) (*core.Program, *meter) {
	m := &meter{}
	out := core.NewProgram(p.Name + "-vtime")
	out.Buffers = p.Buffers
	for _, b := range p.Blocks {
		ob := out.AddBlock()
		for _, t := range b.Templates {
			t := t
			nt := &core.Template{
				ID:        t.ID,
				Name:      t.Name,
				Instances: t.Instances,
				Arcs:      t.Arcs,
				Affinity:  t.Affinity,
			}
			var last time.Duration
			body := t.Body
			nt.Body = func(ctx core.Context) {
				start := time.Now()
				body(ctx)
				last = time.Since(start)
				m.work += last
			}
			access := t.Access
			nt.Cost = func(ctx core.Context) int64 {
				ns := last.Nanoseconds()
				if ns < 1 {
					ns = 1
				}
				if cell && access != nil {
					d := dmaTime(access(ctx))
					m.dma += d
					ns += d.Nanoseconds()
				}
				return ns
			}
			ob.Add(nt)
		}
	}
	return out, m
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
