package cellsim

import (
	"fmt"
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
	// TSUSize caps the DThread instances per DDM Block (the TSU's slot
	// count, §2). Zero means unlimited.
	TSUSize int64
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
	LSHighWater  int64 // largest per-DThread Local Store footprint seen
	SPEs         []SPEStats
}

// Run executes the program on the Cell substrate: DThread bodies on SPE
// goroutines with Local Store staging, the TSU emulator on the PPE
// goroutine. Every buffer the program declares must be registered in svb
// with at least the declared size.
func Run(p *core.Program, svb *core.SharedVariableBuffer, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	state, err := tsu.NewStateCfg(p, cfg.SPEs, tsu.Config{MaxBlockInstances: cfg.TSUSize})
	if err != nil {
		return nil, err
	}
	if err := svb.Covers(p.Buffers); err != nil {
		return nil, fmt.Errorf("cellsim: %w", err)
	}
	r := &cellRunner{
		cfg:    cfg,
		state:  state,
		svb:    svb,
		rings:  make([]*commandBuffer, cfg.SPEs),
		boxes:  make([]chan core.Instance, cfg.SPEs),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	stats := &Stats{SPEs: make([]SPEStats, cfg.SPEs)}
	if cfg.Obs != nil {
		cfg.Obs.Begin()
		r.sink = cfg.Obs
	}
	dmaHist := cfg.Metrics.Histogram("cell.dma_ns")
	r.dmas = make([]dma, cfg.SPEs)
	r.highWater = make([]int64, cfg.SPEs)
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
	stats.Commands = r.commands
	var hw int64
	for i := range r.dmas {
		stats.DMABytesIn += r.dmas[i].bytesIn
		stats.DMABytesOut += r.dmas[i].bytesOut
		stats.DMATransfers += r.dmas[i].transfers
		stats.SPEs[i].DMABytes = r.dmas[i].bytesIn + r.dmas[i].bytesOut
		if r.highWater[i] > hw {
			hw = r.highWater[i]
		}
	}
	stats.LSHighWater = hw
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

type cellRunner struct {
	cfg   Config
	state *tsu.State
	svb   *core.SharedVariableBuffer

	rings  []*commandBuffer
	boxes  []chan core.Instance
	notify chan struct{}

	dmas      []dma
	highWater []int64
	commands  int64
	sink      obs.Sink // nil when observability is disabled

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

// spe is one Synergistic Processor Element: wait on the mailbox for the
// next DThread, stage its imports into the Local Store, run it, stage its
// exports back, and notify the TSU through the CommandBuffer.
func (r *cellRunner) spe(id int, st *SPEStats) {
	arena := make([]byte, localStore)
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
	var imports, exports []core.MemRegion
	if !r.state.IsService(inst) {
		tpl := r.state.Template(inst.Thread)
		if tpl.Access != nil {
			for _, reg := range tpl.Access(inst.Ctx) {
				if reg.Size <= 0 {
					continue
				}
				if reg.Write {
					exports = append(exports, reg)
				} else {
					imports = append(imports, reg)
				}
			}
		}
		// Resident regions occupy the Local Store for the whole DThread;
		// streamed regions are double-buffered through a fixed window, so
		// they cost only their largest DMA piece (two buffers' worth).
		var footprint, streamWindow int64
		for _, reg := range append(append([]core.MemRegion(nil), imports...), exports...) {
			if reg.Stream {
				piece := reg.Size
				if piece > dmaChunk {
					piece = dmaChunk
				}
				if 2*piece > streamWindow {
					streamWindow = 2 * piece
				}
				continue
			}
			footprint += reg.Size
		}
		footprint += streamWindow
		if footprint > localStore-reserve {
			r.fail(fmt.Errorf("cellsim: DThread %v needs %d bytes of Local Store, only %d available (problem size does not fit the SPE Local Store; restructure as the paper's §6.3 notes)",
				inst, footprint, localStore-reserve))
			return false
		}
		if footprint > r.highWater[id] {
			r.highWater[id] = footprint
		}
		// The streaming window sits at the top of the arena; resident
		// regions fill from the bottom.
		streamWin := arena[localStore-2*dmaChunk:]
		// DMA-in the imports.
		var used int64
		for _, reg := range imports {
			src, err := r.svb.Slice(reg.Buffer, reg.Offset, reg.Size)
			if err != nil {
				r.fail(fmt.Errorf("cellsim: %w", err))
				return false
			}
			if reg.Stream {
				r.dmas[id].stage(streamWin, src, false, true)
			} else {
				used += r.dmas[id].stage(arena[used:], src, false, false)
			}
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
		used = 0
		for _, reg := range exports {
			src, err := r.svb.Slice(reg.Buffer, reg.Offset, reg.Size)
			if err != nil {
				r.fail(fmt.Errorf("cellsim: %w", err))
				return false
			}
			if reg.Stream {
				r.dmas[id].stage(streamWin, src, true, true)
			} else {
				used += r.dmas[id].stage(arena[used:], src, true, false)
			}
		}
	}
	r.rings[id].push(command{inst: inst})
	r.signal()
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
