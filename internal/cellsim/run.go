package cellsim

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/tsu"
)

// The simulated SPE, fixed as on the PlayStation 3 the paper evaluates
// (§4.3).
const (
	// localStore is the per-SPE Local Store capacity, as on the real SPU.
	localStore = 256 << 10
	// reserve is the Local Store space unavailable for data: code, stack
	// and runtime.
	reserve = 32 << 10
	// dmaChunk is the most bytes one DMA transfer moves, the Cell's DMA
	// limit.
	dmaChunk = 16 << 10
)

// Config describes the simulated Cell system.
type Config struct {
	// SPEs is the number of compute nodes. Zero selects 6, the number of
	// SPEs available to the programmer on a PlayStation 3.
	SPEs int
	// Obs, when non-nil, receives rts's typed events, one lane per SPE and
	// the PPE's TSUCommand lane (lane == SPEs), plus a DMATransfer per
	// staging operation. An SPE's ThreadComplete span covers the
	// instance's staging as well as its body.
	Obs obs.Sink
	// Metrics, when non-nil, receives rts's counters plus the DMA latency
	// histogram and end-of-run DMA and command totals.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.SPEs <= 0 {
		c.SPEs = 6
	}
	return c
}

// SPEStats reports one SPE's activity.
type SPEStats struct {
	Executed int64 // application DThreads run
	DMABytes int64 // bytes staged in and out
}

// Stats is the outcome of a TFluxCell run.
type Stats struct {
	Elapsed      time.Duration
	TSU          tsu.Stats
	DMABytesIn   int64
	DMABytesOut  int64
	DMATransfers int64
	Commands     int64
	LSHighWater  int64 // largest per-DThread Local Store footprint (see fit)
	SPEs         []SPEStats
}

// Run executes the program on the Cell substrate: TFluxSoft's Kernel loop
// (rts.RunExec) with one Kernel per SPE, whose TSU emulator goroutine is
// the PPE, whose TUB is the CommandBuffers and whose per-kernel ready
// queues are the mailboxes. Each SPE stages a DThread's regions through
// its Local Store around the body (cell.exec). Every buffer the program
// declares must be registered in svb with at least the declared size. A
// program with a DThread that does not fit the Local Store is refused
// before any SPE starts (see fit).
func Run(p *core.Program, svb *core.SharedVariableBuffer, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	highWater, err := fit(p)
	if err != nil {
		return nil, err
	}
	if err := svb.Covers(p.Buffers); err != nil {
		return nil, fmt.Errorf("cellsim: %w", err)
	}
	c := &cell{access: p.AccessTable(), svb: svb, dmas: make([]dma, cfg.SPEs), stores: make([]*[localStore]byte, cfg.SPEs)}
	hist := cfg.Metrics.Histogram("cell.dma_ns")
	for k := range c.dmas {
		c.dmas[k] = dma{sink: cfg.Obs, lane: k, hist: hist}
		c.stores[k] = arenas.Get().(*[localStore]byte)
	}
	rs, err := rts.RunExec(p, rts.Options{Kernels: cfg.SPEs, Obs: cfg.Obs, Metrics: cfg.Metrics}, c.exec)
	for _, ls := range c.stores {
		arenas.Put(ls)
	}
	if rs == nil {
		return nil, fmt.Errorf("cellsim: %w", err)
	}
	stats := &Stats{Elapsed: rs.Elapsed, TSU: rs.TSU, LSHighWater: highWater, SPEs: make([]SPEStats, cfg.SPEs)}
	for k := range c.dmas {
		d := &c.dmas[k]
		stats.DMABytesIn += d.bytesIn
		stats.DMABytesOut += d.bytesOut
		stats.DMATransfers += d.transfers
		stats.Commands += rs.Executed[k] + rs.Service[k]
		stats.SPEs[k] = SPEStats{Executed: rs.Executed[k], DMABytes: d.bytesIn + d.bytesOut}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("cell.dma_bytes_in").Set(stats.DMABytesIn)
		reg.Counter("cell.dma_bytes_out").Set(stats.DMABytesOut)
		reg.Counter("cell.dma_transfers").Set(stats.DMATransfers)
		reg.Counter("cell.commands").Set(stats.Commands)
		reg.Counter("cell.ls_high_water").Set(stats.LSHighWater)
	}
	if err != nil {
		err = fmt.Errorf("cellsim: %w", err)
	}
	return stats, err
}

// footprint is the Local Store an instance whose access-table row is row
// occupies while it runs. Resident regions stay for the whole DThread;
// streamed regions are double-buffered through a fixed window, so they
// cost only two of their largest DMA piece.
func footprint(row []core.MemRegion) int64 {
	var resident, window int64
	for _, reg := range row {
		switch {
		case reg.Size <= 0:
		case reg.Stream:
			window = max(window, 2*min(reg.Size, dmaChunk))
		default:
			resident += reg.Size
		}
	}
	return resident + window
}

// fit walks every instance of p, Block by Block in template and context
// order, and returns the largest footprint, or refuses the first instance
// with a region outside its declared buffer or a footprint beyond the
// Local Store left for data. Run and RunVirtual both call it before any
// body runs, so the two Cell machines refuse the same programs with the
// same error.
func fit(p *core.Program) (int64, error) {
	rows := p.AccessTable()
	var high int64
	for _, b := range p.Blocks {
		for _, t := range b.Templates {
			for ctx := core.Context(0); ctx < t.Instances; ctx++ {
				inst := core.Instance{Thread: t.ID, Ctx: ctx}
				row := rows.Row(inst)
				if err := inBuffers(row, p.Buffers); err != nil {
					return 0, fmt.Errorf("cellsim: DThread %v: %w", inst, err)
				}
				fp := footprint(row)
				if fp > localStore-reserve {
					return 0, fmt.Errorf("cellsim: DThread %v needs %d bytes of Local Store, only %d available (problem size does not fit the SPE Local Store; restructure as the paper's §6.3 notes)",
						inst, fp, localStore-reserve)
				}
				high = max(high, fp)
			}
		}
	}
	return high, nil
}

// inBuffers checks that every region of row lies inside the buffer of
// decls it names, by the one bounds predicate and in the words of
// core.SharedVariableBuffer.Slice.
func inBuffers(row []core.MemRegion, decls []core.Buffer) error {
	for _, reg := range row {
		i := slices.IndexFunc(decls, func(d core.Buffer) bool { return d.Name == reg.Buffer })
		switch {
		case i < 0:
			return fmt.Errorf("region references undeclared buffer %q", reg.Buffer)
		case !core.InBounds(reg.Offset, reg.Size, decls[i].Size):
			return core.OutsideBuffer(reg.Buffer, reg.Offset, reg.Size, decls[i].Size)
		}
	}
	return nil
}

// arenas recycles Local Stores between runs: a PS3 allocates its SPEs'
// Local Stores once, not per program. Staging writes a window before
// anything reads it, so an arena's previous contents never matter.
var arenas = sync.Pool{New: func() any { return new([localStore]byte) }}

// cell is one run's SPE side: each SPE's Local Store and DMA engine, and
// the rows and store it stages from. Kernel k touches only stores[k] and
// dmas[k].
type cell struct {
	access *core.AccessTable
	svb    *core.SharedVariableBuffer
	stores []*[localStore]byte
	dmas   []dma
}

// exec is one SPE's execution of a DThread (rts.Exec): DMA its
// access-table row's imports into SPE k's Local Store, run it, and DMA
// its exports back (traffic-equivalent staging; see the package doc). An
// Inlet or Outlet has no row and stages nothing.
func (c *cell) exec(k tsu.KernelID, inst core.Instance, body core.Body) {
	row := c.access.Row(inst)
	c.stageRow(k, row, false)
	body(inst.Ctx)
	c.stageRow(k, row, true)
}

// stageRow DMAs row's imports into SPE k's Local Store, or its exports
// out of it when out is set. Resident regions fill the arena from the
// bottom and, by fit, stay below the streaming window at its top.
func (c *cell) stageRow(k tsu.KernelID, row []core.MemRegion, out bool) {
	arena, d := c.stores[k][:], &c.dmas[k]
	var used int64
	for _, reg := range row {
		if reg.Write != out || reg.Size <= 0 {
			continue
		}
		src, err := c.svb.Slice(reg.Buffer, reg.Offset, reg.Size)
		if err != nil {
			panic(err) // unreachable: fit and Covers checked every region
		}
		if reg.Stream {
			d.stage(arena[localStore-2*dmaChunk:], src, out, true)
		} else {
			used += d.stage(arena[used:], src, out, false)
		}
	}
}
