package cellsim

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// The simulated SPE and its links to the PPE, fixed as on the
// PlayStation 3 the paper evaluates (§4.3).
const (
	// localStore is the per-SPE Local Store capacity, as on the real SPU.
	localStore = 256 << 10
	// reserve is the Local Store space unavailable for data: code, stack
	// and runtime.
	reserve = 32 << 10
	// dmaChunk is the most bytes one DMA transfer moves, the Cell's DMA
	// limit.
	dmaChunk = 16 << 10
	// mailboxCap is the SPE inbound mailbox depth.
	mailboxCap = 4
	// commandBufCap is the CommandBuffer ring capacity: the paper's
	// 128-byte buffer at 8 bytes per command.
	commandBufCap = 16
)

// Config describes the simulated Cell system.
type Config struct {
	// SPEs is the number of compute nodes. Zero selects 6, the number of
	// SPEs available to the programmer on a PlayStation 3.
	SPEs int
	// Obs, when non-nil, receives typed events: ThreadComplete per SPE
	// lane, DMATransfer per staging operation, and TSUCommand on the PPE
	// lane (lane == SPEs).
	Obs obs.Sink
	// Metrics, when non-nil, receives the DMA latency histogram plus
	// end-of-run DMA, command, and TSU totals.
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

// Run executes the program on the Cell substrate: DThread bodies on SPE
// goroutines with Local Store staging, the TSU emulator on the PPE
// goroutine. Every buffer the program declares must be registered in svb
// with at least the declared size. A program with a DThread that does not
// fit the Local Store is refused before any SPE starts (see fit).
func Run(p *core.Program, svb *core.SharedVariableBuffer, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	highWater, err := fit(p)
	if err != nil {
		return nil, err
	}
	state, err := tsu.NewState(p, cfg.SPEs)
	if err != nil {
		return nil, err
	}
	if err := svb.Covers(p.Buffers); err != nil {
		state.Release()
		return nil, fmt.Errorf("cellsim: %w", err)
	}
	r := &cellRunner{
		cfg:    cfg,
		state:  state,
		access: p.AccessTable(),
		svb:    svb,
		rings:  make([]*commandBuffer, cfg.SPEs),
		boxes:  make([]chan core.Instance, cfg.SPEs),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	stats := &Stats{LSHighWater: highWater, SPEs: make([]SPEStats, cfg.SPEs)}
	if cfg.Obs != nil {
		cfg.Obs.Begin()
		r.sink = cfg.Obs
	}
	dmaHist := cfg.Metrics.Histogram("cell.dma_ns")
	r.dmas = make([]dma, cfg.SPEs)
	for i := 0; i < cfg.SPEs; i++ {
		r.rings[i] = newCommandBuffer()
		r.boxes[i] = make(chan core.Instance, mailboxCap)
		r.dmas[i].sink = cfg.Obs
		r.dmas[i].lane = i
		r.dmas[i].hist = dmaHist
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.SPEs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.spe(i, &stats.SPEs[i])
		}(i)
	}
	ppeErr := r.ppe()
	wg.Wait()
	stats.Elapsed = time.Since(start)
	stats.TSU = state.Stats()
	state.Release()
	stats.Commands = r.commands
	for i := range r.dmas {
		stats.DMABytesIn += r.dmas[i].bytesIn
		stats.DMABytesOut += r.dmas[i].bytesOut
		stats.DMATransfers += r.dmas[i].transfers
		stats.SPEs[i].DMABytes = r.dmas[i].bytesIn + r.dmas[i].bytesOut
	}
	if cfg.Metrics != nil {
		reg := cfg.Metrics
		reg.Counter("cell.dma_bytes_in").Set(stats.DMABytesIn)
		reg.Counter("cell.dma_bytes_out").Set(stats.DMABytesOut)
		reg.Counter("cell.dma_transfers").Set(stats.DMATransfers)
		reg.Counter("cell.commands").Set(stats.Commands)
		reg.Counter("cell.ls_high_water").Set(stats.LSHighWater)
		reg.Counter("tsu.decrements").Set(stats.TSU.Decrements)
		reg.Counter("tsu.fired").Set(stats.TSU.Fired)
	}
	r.errMu.Lock()
	err = r.err
	r.errMu.Unlock()
	if err == nil {
		err = ppeErr
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

type cellRunner struct {
	cfg    Config
	state  *tsu.State
	access *core.AccessTable
	svb    *core.SharedVariableBuffer

	rings  []*commandBuffer
	boxes  []chan core.Instance
	notify chan struct{}

	dmas     []dma
	commands int64
	sink     obs.Sink // nil when observability is disabled

	stop     chan struct{}
	stopOnce sync.Once
	errMu    sync.Mutex
	err      error
}

func (r *cellRunner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.shutdown()
}

// shutdown releases every blocked party: SPEs waiting on mailboxes or
// pushing commands, and the PPE waiting for activity. Mailbox channels are
// never closed (the PPE may be mid-send); SPEs exit through the stop
// channel instead.
func (r *cellRunner) shutdown() {
	r.stopOnce.Do(func() {
		close(r.stop)
		for _, cb := range r.rings {
			cb.close()
		}
	})
}

func (r *cellRunner) signal() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// arenas recycles Local Stores between runs: a PS3 allocates its SPEs'
// Local Stores once, not per program. Staging writes a window before
// anything reads it, so an arena's previous contents never matter.
var arenas = sync.Pool{New: func() any { return new([localStore]byte) }}

// spe is one Synergistic Processor Element: wait on the mailbox for the
// next DThread, stage its imports into the Local Store, run it, stage its
// exports back, and notify the TSU through the CommandBuffer.
func (r *cellRunner) spe(id int, st *SPEStats) {
	ls := arenas.Get().(*[localStore]byte)
	defer arenas.Put(ls)
	arena := ls[:]
	for {
		select {
		case inst := <-r.boxes[id]:
			if !r.runOne(id, inst, arena, st) {
				return
			}
		case <-r.stop:
			return
		}
	}
}

// runOne executes a single DThread on SPE id. It returns false on abort.
func (r *cellRunner) runOne(id int, inst core.Instance, arena []byte, st *SPEStats) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("cellsim: DThread %v panicked on SPE %d: %v", inst, id, p))
			ok = false
		}
	}()
	if !r.state.IsService(inst) {
		tpl := r.state.Template(inst.Thread)
		row := r.access.Row(inst)
		if !r.stageRow(id, row, arena, false) {
			return false
		}
		if r.sink != nil {
			t0 := r.sink.Now()
			start := time.Now()
			tpl.Body(inst.Ctx)
			r.sink.Record(obs.Event{
				Kind:  obs.ThreadComplete,
				Lane:  id,
				Inst:  inst,
				Start: t0,
				Dur:   time.Since(start),
			})
		} else {
			tpl.Body(inst.Ctx)
		}
		st.Executed++
		// DMA-out the exports (traffic-equivalent staging; see package
		// doc).
		if !r.stageRow(id, row, arena, true) {
			return false
		}
	}
	r.rings[id].push(command{inst: inst})
	r.signal()
	return true
}

// stageRow DMAs row's imports into SPE id's Local Store, or its exports
// out of it when out is set. Resident regions fill arena from the bottom
// and, by fit, stay below the streaming window at its top.
func (r *cellRunner) stageRow(id int, row []core.MemRegion, arena []byte, out bool) bool {
	streamWin := arena[localStore-2*dmaChunk:]
	var used int64
	for _, reg := range row {
		if reg.Write != out || reg.Size <= 0 {
			continue
		}
		src, err := r.svb.Slice(reg.Buffer, reg.Offset, reg.Size)
		if err != nil {
			r.fail(fmt.Errorf("cellsim: %w", err))
			return false
		}
		if reg.Stream {
			r.dmas[id].stage(streamWin, src, out, true)
		} else {
			used += r.dmas[id].stage(arena[used:], src, out, false)
		}
	}
	return true
}

// ppe is the PPE-side TSU Emulator: loop over all CommandBuffers, apply
// completions to the TSU state, and mail newly ready DThreads to their
// owning SPEs.
func (r *cellRunner) ppe() error {
	// pending holds ready DThreads whose SPE mailbox was full. Mailbox
	// sends are never blocking: a full mailbox plus a full CommandBuffer
	// would otherwise deadlock the PPE against the SPE. Every mailbox
	// consumption ends in a command push (which signals), so pending work
	// is always retried.
	pending := make([][]core.Instance, r.cfg.SPEs)
	flush := func() {
		for i := range pending {
		sendLoop:
			for len(pending[i]) > 0 {
				select {
				case r.boxes[i] <- pending[i][0]:
					pending[i] = pending[i][1:]
				default:
					break sendLoop
				}
			}
		}
	}

	first := r.state.Start()
	pending[int(first.Kernel)] = append(pending[int(first.Kernel)], first.Inst)
	flush()

	var cmds []command
	var ready []tsu.Ready // reusable CompleteInto batch buffer
	for {
		cmds = cmds[:0]
		for _, cb := range r.rings {
			cmds = cb.drain(cmds)
		}
		if len(cmds) == 0 {
			flush()
			select {
			case <-r.notify:
				continue
			case <-r.stop:
				return nil
			}
		}
		for _, c := range cmds {
			r.commands++
			var t0 time.Duration
			if r.sink != nil {
				t0 = r.sink.Now()
			}
			var programDone bool
			ready, _, programDone = r.state.CompleteInto(ready[:0], c.inst, r.state.KernelOf(c.inst))
			if r.sink != nil {
				r.sink.Record(obs.Event{
					Kind:  obs.TSUCommand,
					Lane:  r.cfg.SPEs,
					Inst:  c.inst,
					Start: t0,
					Dur:   r.sink.Now() - t0,
				})
			}
			for _, rd := range ready {
				pending[int(rd.Kernel)] = append(pending[int(rd.Kernel)], rd.Inst)
			}
			if programDone {
				r.shutdown()
				return nil
			}
		}
		flush()
	}
}
