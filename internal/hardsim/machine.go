package hardsim

import (
	"fmt"
	"time"

	"tflux/internal/core"
	"tflux/internal/mem"
	"tflux/internal/obs"
	"tflux/internal/sim"
	"tflux/internal/tsu"
)

// Config describes the simulated TFluxHard machine.
type Config struct {
	// Cores is the number of CPUs executing Kernels. The paper's Bagle
	// machine has 28 cores with one reserved for the OS, so the largest
	// evaluated configuration is 27.
	Cores int
	// Mem configures the cache hierarchy; zero value selects the paper's
	// §6.1.1 geometry (mem.DefaultConfig).
	Mem mem.Config
	// TSULat is the TSU Group's processing time per command, in cycles.
	// The paper charges 4 cycles on top of an L1 access and reports <1%
	// sensitivity up to 128. Zero selects 4.
	TSULat sim.Time
	// MMILat is the Memory-Mapped Interface cost of one CPU↔TSU exchange.
	// Zero selects the L1 read latency (the TSU is addressed like memory).
	MMILat sim.Time
	// DecLat is the device time per Ready Count decrement during the
	// Post-Processing Phase. Zero selects 1.
	DecLat sim.Time
	// ServiceCost is the compute cost charged to Inlet/Outlet DThreads
	// (TSU load/clear work). Zero selects 64 cycles plus one cycle per
	// instance loaded.
	ServiceCost sim.Time
	// TSUGroups is the number of TSU Groups. The paper's base design
	// groups all per-CPU TSUs into one unit (one network connection,
	// §3.3); §4.1 notes that "for systems with very large number of CPUs
	// it may be beneficial to have multiple TSU Groups" and that such a
	// version was under development — this implements it. Cores are
	// partitioned across groups in contiguous chunks; each group
	// serializes its own command processing, and a completion whose
	// consumer is owned by a different group pays groupXferLat for the
	// TSU-to-TSU transfer that the single-group design handles
	// internally. Zero selects 1.
	TSUGroups int
	// TSUSize caps the DThread instances per DDM Block (the hardware
	// TSU's slot count, §2). Zero means unlimited.
	TSUSize int64
	// Obs, when non-nil, receives the simulated run as typed events, with
	// cycles mapped onto durations via cyclePeriod: ThreadComplete per
	// core lane, CacheStall for the memory portion of each application
	// DThread, and TSUCommand on the device lanes (lane == Cores+group).
	Obs obs.Sink
	// Metrics, when non-nil, receives end-of-run cycle and cache totals.
	Metrics *obs.Registry
}

const (
	// groupXferLat is the inter-group notification latency in cycles,
	// paid when TSUGroups > 1 and a completion's consumer belongs to
	// another group.
	groupXferLat sim.Time = 16
	// cyclePeriod is the wall-clock span one simulated cycle occupies in
	// exported traces: a 1 GHz clock.
	cyclePeriod = time.Nanosecond
)

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Mem.L1.Size == 0 {
		c.Mem = mem.DefaultConfig()
	}
	if c.TSULat <= 0 {
		c.TSULat = 4
	}
	if c.MMILat <= 0 {
		c.MMILat = sim.Time(c.Mem.L1.ReadLat)
	}
	if c.DecLat <= 0 {
		c.DecLat = 1
	}
	if c.ServiceCost <= 0 {
		c.ServiceCost = 64
	}
	if c.TSUGroups <= 0 {
		c.TSUGroups = 1
	}
	if c.TSUGroups > c.Cores {
		c.TSUGroups = c.Cores
	}
	return c
}

// CoreStats reports one simulated CPU's activity.
type CoreStats struct {
	Executed int64    // application DThread instances run
	Busy     sim.Time // cycles spent executing DThread bodies
}

// Result is the outcome of a simulated run.
type Result struct {
	Cycles  sim.Time // total execution time in cycles
	Mem     mem.Stats
	TSU     tsu.Stats
	TSUBusy sim.Time // cycles the TSU device spent processing commands
	Cores   []CoreStats
}

// pageSize aligns buffer bases so buffers never share cache lines.
const pageSize = 4096

// layout assigns simulated physical addresses to the program's buffers.
type layout struct {
	base map[string]uint64
	end  uint64
}

func newLayout(bufs []core.Buffer) *layout {
	l := &layout{base: make(map[string]uint64, len(bufs)), end: pageSize}
	for _, b := range bufs {
		l.base[b.Name] = l.end
		sz := (uint64(b.Size) + pageSize - 1) &^ (pageSize - 1)
		l.end += sz + pageSize // guard page between buffers
	}
	return l
}

func (l *layout) addr(r core.MemRegion) (uint64, error) {
	base, ok := l.base[r.Buffer]
	if !ok {
		return 0, fmt.Errorf("hardsim: region references undeclared buffer %q", r.Buffer)
	}
	return base + uint64(r.Offset), nil
}

// machine is the simulated system state during one run.
type machine struct {
	cfg     Config
	prog    *core.Program
	eng     sim.Engine
	hier    *mem.Hierarchy
	state   *tsu.State
	lay     *layout
	devices []sim.Resource // one per TSU Group

	ready   [][]core.Instance // per-core pending ready DThreads
	waiting []bool            // core idles awaiting a dispatch
	last    []core.Instance   // locality hint per core
	cores   []CoreStats

	// fired is the reusable Post-Processing batch buffer: the event loop
	// runs callbacks sequentially and each consumes the batch before
	// returning, so one buffer serves every completion. consumers and ctx
	// are the arc-expansion scratch complete sizes the device's work with.
	fired     []tsu.Ready
	consumers []core.Instance
	ctx       []core.Context

	sink obs.Sink // nil when observability is disabled

	done bool
	err  error
}

// cyc maps a simulated cycle count (or timestamp) onto the wall-clock
// scale used by the shared event model.
func (m *machine) cyc(t sim.Time) time.Duration {
	return time.Duration(t) * cyclePeriod
}

// Run simulates the program on the configured machine and returns the
// cycle-level result.
func Run(p *core.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	state, err := tsu.NewStateCfg(p, cfg.Cores, tsu.Config{MaxBlockInstances: cfg.TSUSize})
	if err != nil {
		return nil, err
	}
	m := &machine{
		cfg:     cfg,
		prog:    p,
		hier:    mem.NewHierarchy(cfg.Cores, cfg.Mem),
		state:   state,
		lay:     newLayout(p.Buffers),
		devices: make([]sim.Resource, cfg.TSUGroups),
		ready:   make([][]core.Instance, cfg.Cores),
		waiting: make([]bool, cfg.Cores),
		last:    make([]core.Instance, cfg.Cores),
		cores:   make([]CoreStats, cfg.Cores),
	}
	if cfg.Obs != nil {
		cfg.Obs.Begin()
		m.sink = cfg.Obs
	}
	first := state.Start()
	m.ready[int(first.Kernel)] = append(m.ready[int(first.Kernel)], first.Inst)
	for c := 0; c < cfg.Cores; c++ {
		c := c
		m.eng.At(0, func() { m.requestThread(c) })
	}
	m.eng.Run()
	if m.err != nil {
		return nil, m.err
	}
	if !m.done {
		return nil, fmt.Errorf("hardsim: simulation stalled after %d cycles: no event left before the last Outlet (deadlock)", m.eng.Now())
	}
	res := &Result{
		Cycles: m.eng.Now(),
		Mem:    m.hier.Stats(),
		TSU:    state.Stats(),
		Cores:  m.cores,
	}
	for i := range m.devices {
		res.TSUBusy += m.devices[i].Busy
	}
	if cfg.Metrics != nil {
		reg := cfg.Metrics
		reg.Counter("hard.cycles").Set(int64(res.Cycles))
		reg.Counter("hard.tsu_busy_cycles").Set(int64(res.TSUBusy))
		reg.Counter("hard.mem_accesses").Set(res.Mem.Accesses)
		reg.Counter("hard.l1_hits").Set(res.Mem.L1Hits)
		reg.Counter("hard.l2_hits").Set(res.Mem.L2Hits)
		reg.Counter("hard.l2_misses").Set(res.Mem.L2Misses)
		reg.Counter("hard.coherence_misses").Set(res.Mem.CoherenceMisses)
		reg.Counter("tsu.decrements").Set(res.TSU.Decrements)
		reg.Counter("tsu.fired").Set(res.TSU.Fired)
	}
	return res, nil
}

// groupOf returns the TSU Group serving a core (contiguous partition).
func (m *machine) groupOf(c int) int {
	return c * m.cfg.TSUGroups / m.cfg.Cores
}

// requestThread models the CPU querying the TSU for its next ready
// DThread: an MMI transaction plus serialized device processing.
func (m *machine) requestThread(c int) {
	if m.done || m.err != nil {
		return
	}
	arrive := m.eng.Now() + m.cfg.MMILat
	done := m.devices[m.groupOf(c)].Acquire(arrive, m.cfg.TSULat)
	m.eng.At(done, func() {
		if m.done || m.err != nil {
			return
		}
		if inst, ok := m.pop(c); ok {
			m.eng.At(m.eng.Now()+m.cfg.MMILat, func() { m.execute(c, inst) })
			return
		}
		// No ready DThread: the TSU forces the CPU to wait; a later
		// dispatch wakes it.
		m.waiting[c] = true
	})
}

// pop removes the locality-preferred ready instance for core c.
func (m *machine) pop(c int) (core.Instance, bool) {
	q := m.ready[c]
	if len(q) == 0 {
		return core.Instance{}, false
	}
	pick := 0
	lastInst := m.last[c]
	same := -1
	for i, it := range q {
		if it.Thread != lastInst.Thread {
			continue
		}
		if it.Ctx == lastInst.Ctx+1 {
			pick = i
			same = -2
			break
		}
		if same < 0 {
			same = i
		}
	}
	if same >= 0 {
		pick = same
	}
	inst := q[pick]
	m.ready[c] = append(q[:pick], q[pick+1:]...)
	return inst, true
}

// execute runs one DThread on core c: native body for the functional
// result, cost model + cache replay for the timing.
func (m *machine) execute(c int, inst core.Instance) {
	if m.done || m.err != nil {
		return
	}
	var cycles, memCycles sim.Time
	if m.state.IsService(inst) {
		// Inlet DThreads load the block's metadata into the TSU: charge
		// one cycle per DThread instance loaded on top of the base cost.
		cycles = m.cfg.ServiceCost
		if name := m.state.ServiceName(inst); len(name) > 5 && name[:5] == "inlet" {
			blk := m.state.Stats().Inlets // blocks loaded so far = next block index
			if blk < len(m.prog.Blocks) {
				cycles += sim.Time(m.prog.Blocks[blk].TotalInstances())
			}
		}
	} else {
		tpl := m.state.Template(inst.Thread)
		func() {
			defer func() {
				if p := recover(); p != nil {
					m.err = fmt.Errorf("hardsim: DThread %v panicked on core %d: %v", inst, c, p)
				}
			}()
			tpl.Body(inst.Ctx)
		}()
		if m.err != nil {
			return
		}
		if tpl.Cost != nil {
			cycles += sim.Time(tpl.Cost(inst.Ctx))
		}
		if tpl.Access != nil {
			for _, r := range tpl.Access(inst.Ctx) {
				addr, err := m.lay.addr(r)
				if err != nil {
					m.err = err
					return
				}
				memCycles += sim.Time(m.hier.Access(c, addr, r.Size, r.Write))
			}
		}
		cycles += memCycles
		m.cores[c].Executed++
	}
	if cycles < 1 {
		cycles = 1
	}
	m.cores[c].Busy += cycles
	m.last[c] = inst
	if m.sink != nil {
		start := m.eng.Now()
		m.sink.Record(obs.Event{
			Kind:    obs.ThreadComplete,
			Lane:    c,
			Inst:    inst,
			Start:   m.cyc(start),
			Dur:     m.cyc(cycles),
			Service: m.state.IsService(inst),
		})
		// The memory portion of the DThread is also exported as a stall
		// slice so cache behaviour is visible on the same track.
		if memCycles > 0 {
			m.sink.Record(obs.Event{
				Kind:  obs.CacheStall,
				Lane:  c,
				Inst:  inst,
				Start: m.cyc(start + cycles - memCycles),
				Dur:   m.cyc(memCycles),
			})
		}
	}
	m.eng.After(cycles, func() { m.complete(c, inst) })
}

// complete models the CPU notifying the TSU Group (MMI store) and the
// device performing the Post-Processing Phase: consumer expansion, Ready
// Count decrements, block sequencing, and dispatch of newly ready
// DThreads. The CPU immediately queues its next-thread request behind the
// post-processing (the device serializes both).
func (m *machine) complete(c int, inst core.Instance) {
	if m.done || m.err != nil {
		return
	}
	m.consumers = m.state.AppendConsumers(m.consumers[:0], &m.ctx, inst)
	dur := m.cfg.TSULat + m.cfg.DecLat*sim.Time(len(m.consumers))
	arrive := m.eng.Now() + m.cfg.MMILat
	group := m.groupOf(c)
	done := m.devices[group].Acquire(arrive, dur)
	m.eng.At(done, func() {
		if m.done || m.err != nil {
			return
		}
		if m.sink != nil {
			// The device lanes sit one past the last core, one per group.
			m.sink.Record(obs.Event{
				Kind:  obs.TSUCommand,
				Lane:  m.cfg.Cores + group,
				Inst:  inst,
				Start: m.cyc(done - dur),
				Dur:   m.cyc(dur),
			})
		}
		// The device applies the expansion sized above; CompleteInto
		// expands it again into the State's own scratch.
		var programDone bool
		m.fired, _, programDone = m.state.CompleteInto(m.fired[:0], inst, tsu.KernelID(c))
		for _, rd := range m.fired {
			m.dispatch(group, rd)
		}
		if programDone {
			m.done = true
		}
	})
	m.requestThread(c)
}

// dispatch hands a ready DThread to its owner core, waking the core with
// an MMI transfer if it is stalled in the TSU wait loop. When the owner
// belongs to a different TSU Group than the one that processed the
// completion, the TSU-to-TSU transfer costs groupXferLat extra cycles
// (in the single-group design this communication is internal, §3.3).
func (m *machine) dispatch(fromGroup int, rd tsu.Ready) {
	c := int(rd.Kernel)
	xfer := sim.Time(0)
	if m.groupOf(c) != fromGroup {
		xfer = groupXferLat
	}
	if m.waiting[c] {
		m.waiting[c] = false
		inst := rd.Inst
		m.eng.After(m.cfg.MMILat+xfer, func() { m.execute(c, inst) })
		return
	}
	if xfer > 0 {
		inst := rd.Inst
		m.eng.After(xfer, func() {
			if m.waiting[c] {
				m.waiting[c] = false
				m.eng.After(m.cfg.MMILat, func() { m.execute(c, inst) })
				return
			}
			m.ready[c] = append(m.ready[c], inst)
		})
		return
	}
	m.ready[c] = append(m.ready[c], rd.Inst)
}

// Step is one unit of a sequential job: a compute cost plus the memory
// regions it touches.
type Step struct {
	Cost    int64
	Regions []core.MemRegion
}

// Sequential simulates the original single-threaded program (no TFlux
// overheads) on one core of the same machine: the paper's speedup
// baseline. Steps execute back-to-back; only compute cost and memory
// cycles accumulate.
func Sequential(buffers []core.Buffer, steps []Step, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	hier := mem.NewHierarchy(1, cfg.Mem)
	lay := newLayout(buffers)
	var cycles sim.Time
	for _, s := range steps {
		cycles += sim.Time(s.Cost)
		for _, r := range s.Regions {
			addr, err := lay.addr(r)
			if err != nil {
				return nil, err
			}
			cycles += sim.Time(hier.Access(0, addr, r.Size, r.Write))
		}
	}
	return &Result{
		Cycles: cycles,
		Mem:    hier.Stats(),
		Cores:  []CoreStats{{Executed: int64(len(steps)), Busy: cycles}},
	}, nil
}
