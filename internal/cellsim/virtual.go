package cellsim

import (
	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/mem"
	"tflux/internal/sim"
)

// The virtual TFluxCell's prices, in nanoseconds (one cycle each). The
// PPE's TSU emulator pays tsuOp per command, a mailbox and CommandBuffer
// polling round; an SPE pays handoff to read its mailbox and decLat per
// ready-count update. A DMA transfer of at most dmaChunk bytes costs
// dmaSetup plus its bytes at dmaBytesPerNS (8 GB/s effective).
const (
	tsuOp         = 4000
	handoff       = 1000
	decLat        = 100
	dmaSetup      = 1000
	dmaBytesPerNS = 8
)

// freeMem is a cache model whose accesses cost nothing (its geometry must
// still be valid): an SPE reads only its Local Store, and RunVirtual
// charges the staging into it instead.
var freeMem = mem.Config{
	L1: mem.CacheConfig{Size: 4 << 10, Line: 64, Ways: 1},
	L2: mem.CacheConfig{Size: 64 << 10, Line: 64, Ways: 1},
}

// Machine returns the hardsim machine that models TFluxCell on spes SPEs
// with the PPE's software TSU. Zero SPEs selects 1.
func Machine(spes int) hardsim.Config {
	return hardsim.Config{
		Cores:       spes,
		TSULat:      tsuOp,
		MMILat:      handoff,
		DecLat:      decLat,
		ServiceCost: tsuOp,
		Mem:         freeMem,
	}
}

// RunVirtual runs p on the virtual TFluxCell and returns its makespan in
// nanoseconds. It refuses what Run refuses, with the same error and before
// any body runs; otherwise every body runs natively once, in dataflow
// order, and each instance is charged its Cost plus the DMA of staging its
// access-table row, so a run repeats cycle for cycle on any host.
func RunVirtual(p *core.Program, spes int) (sim.Time, error) {
	if _, err := fit(p); err != nil {
		return 0, err
	}
	res, err := hardsim.Run(staged(p), Machine(spes))
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// staged returns a shallow copy of p whose templates' Cost also charges
// the DMA of their instance's access-table row. The copy declares no
// Access model, so the machine replays no memory trace of its own.
func staged(p *core.Program) *core.Program {
	rows := p.AccessTable()
	out := core.NewProgram(p.Name)
	out.Buffers = p.Buffers
	for _, b := range p.Blocks {
		ob := out.AddBlock()
		for _, t := range b.Templates {
			nt := *t
			nt.Access = nil
			nt.Cost = func(ctx core.Context) int64 {
				ns := dmaTime(rows.Row(core.Instance{Thread: t.ID, Ctx: ctx}))
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

// dmaTime prices staging row through the Local Store: dmaSetup per
// transfer plus the bytes at dmaBytesPerNS, region by region, as Run's DMA
// engine splits them.
func dmaTime(row []core.MemRegion) int64 {
	var ns int64
	for _, r := range row {
		if r.Size > 0 {
			ns += (r.Size+dmaChunk-1)/dmaChunk*dmaSetup + r.Size/dmaBytesPerNS
		}
	}
	return ns
}
