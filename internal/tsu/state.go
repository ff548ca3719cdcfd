package tsu

import (
	"fmt"
	"slices"

	"tflux/internal/core"
)

// KernelID indexes a Kernel (worker) of the runtime, 0-based.
type KernelID int

// Ready is a DThread instance the TSU has deemed executable, together with
// the Kernel that owns it (per the Thread-to-Kernel Table).
type Ready struct {
	Inst   core.Instance
	Kernel KernelID
}

// Stats counts TSU activity; retrieved once the program finishes.
type Stats struct {
	Inlets     int   // Inlet DThreads executed (one per block)
	Outlets    int   // Outlet DThreads executed (one per block)
	Decrements int64 // Ready Count decrements performed
	Fired      int64 // application instances that became ready
	PerKernel  []int64
}

// sm is one kernel's Synchronization Memory: the Ready Counts of the
// instances the kernel owns for the currently loaded Block. Counts are kept
// in per-template dense slices covering only the context range assigned to
// the kernel, exactly what "one such structure exists for each kernel"
// means in §4.2. The slices are views into cells, which every Block load
// reuses and grows only for a Block larger than any before.
type sm struct {
	counts [][]int32      // indexed by dense template index, then ctx-base
	base   []core.Context // first owned context per template
	cells  []int32
}

// State is the synchronization engine of the TSU Group. It is not safe for
// concurrent mutation: one driver (the software TSU emulator, which is
// also the Cell's PPE, the simulated hardware device, or the Fleet loop)
// serializes Decrement/Done calls.
// AppendConsumers, KernelOf and IsService only read immutable tables and
// may be called from any goroutine.
type State struct {
	prog    *core.Program
	kernels int

	// infos is the dense thread table: infos[id] holds template id's
	// immutable metadata (infos[id].t == nil for unassigned IDs). Sized by
	// the program's maximum ThreadID, it turns every per-operation map
	// lookup of the previous design into array indexing.
	infos []tmplInfo

	// Inlet/Outlet thread IDs are synthesized above the program's own ID
	// space: inlet(b) = serviceBase + 2b, outlet(b) = serviceBase + 2b+1.
	serviceBase core.ThreadID

	curBlock  int
	remaining int64 // application instances left in the current block
	sms       []sm  // one per kernel
	loaded    bool
	done      bool

	// linearSearch disables Thread Indexing: locating the SM that holds
	// an instance scans the kernels sequentially, the pre-TKT behaviour
	// §4.2 describes as increasingly costly with node count. Ablation
	// only (SetLinearSMSearch).
	linearSearch bool
	// searchSteps counts SM probes performed while locating instances,
	// the quantity the TKT exists to eliminate.
	searchSteps int64

	// ctx and cons are CompleteInto's arc-expansion scratch, and deg the
	// Inlet's in-degree scratch: the driver's own, like the SMs, so they
	// stay grown across Blocks and, through Release, across runs.
	ctx  []core.Context
	cons []core.Instance
	deg  []uint32

	stats Stats
}

// SetLinearSMSearch toggles the Thread-Indexing ablation: when enabled,
// SM lookup degrades to the sequential search over kernels that the TKT
// replaces (§4.2). Call before execution starts.
func (s *State) SetLinearSMSearch(on bool) { s.linearSearch = on }

// SearchSteps returns the number of SM probes performed so far (1 per
// lookup with the TKT; up to Kernels per lookup without it).
func (s *State) SearchSteps() int64 { return s.searchSteps }

// info returns the dense thread-table entry for an application thread ID.
func (s *State) info(id core.ThreadID) *tmplInfo { return &s.infos[id] }

// locate returns the kernel whose SM holds the instance. With Thread
// Indexing this is a direct TKT computation; in the ablation it probes
// each kernel's SM membership in turn, charging a step per probe. steps
// points at the probe counter to charge — s.searchSteps for the single
// driver, a lane-local counter under the sharded engine.
func (s *State) locate(info *tmplInfo, ctx core.Context, steps *int64) KernelID {
	if !s.linearSearch {
		*steps++
		return s.kernelOfInfo(info, ctx)
	}
	for k := 0; k < s.kernels; k++ {
		*steps++
		if s.owns(info, KernelID(k), ctx) {
			return KernelID(k)
		}
	}
	// Unreachable for valid instances; fall back to the TKT answer.
	return s.kernelOfInfo(info, ctx)
}

// owns reports whether kernel k's SM holds ctx of info's template, a range
// test under the chunked split. One call is the unit the linear-search
// ablation charges.
func (s *State) owns(info *tmplInfo, k KernelID, ctx core.Context) bool {
	lo, hi := s.ownedRange(info.t, k)
	return ctx >= lo && ctx < hi
}

// NewState is NewStateCfg with the default Config: an unlimited TSU.
func NewState(p *core.Program, kernels int) (*State, error) {
	return NewStateCfg(p, kernels, Config{})
}

// Config bundles the optional State knobs.
type Config struct {
	// MaxBlockInstances is the number of DThread-instance slots the TSU
	// provides, the quantity that bounds a DDM Block's size in the paper
	// ("its maximum size ... is defined by the size of the TSU", §2). A
	// program whose Blocks exceed it must be split into more Blocks;
	// NewStateCfg returns an error identifying the offending Block rather
	// than silently overcommitting. Zero means unlimited.
	MaxBlockInstances int64
}

// NewStateCfg validates the program and builds the immutable thread and
// arc tables.
// kernels is the number of Kernels that will execute DThreads; it must be
// at least 1.
func NewStateCfg(p *core.Program, kernels int, cfg Config) (*State, error) {
	infos, err := threadTable(p, kernels, cfg)
	if err != nil {
		return nil, err
	}
	return newState(p, kernels, infos), nil
}

// threadTable validates the program for a TSU of the given kernels and
// config, and builds its thread table.
func threadTable(p *core.Program, kernels int, cfg Config) ([]tmplInfo, error) {
	if kernels < 1 {
		return nil, fmt.Errorf("tsu: kernels = %d, need at least 1", kernels)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBlockInstances > 0 {
		for _, b := range p.Blocks {
			if n := b.TotalInstances(); n > cfg.MaxBlockInstances {
				return nil, fmt.Errorf("tsu: block %d holds %d DThread instances but the TSU has %d slots; split the program into more DDM Blocks or raise the TSU size",
					b.ID, n, cfg.MaxBlockInstances)
			}
		}
	}
	return buildThreadTable(p.Blocks)
}

// states holds Released States, so a run starts with the SM arrays and
// scratch an earlier run grew, whatever its program or kernel count.
var states FreeList[State]

// newState is the one place a State is (re)initialised: it builds the
// mutable half over a thread table on a Released State when there is one,
// keeping only its grown arrays. Every Block load overwrites each SM cell
// it uses, so arrays an earlier run grew carry nothing into this one.
func newState(p *core.Program, kernels int, infos []tmplInfo) *State {
	s := states.Get()
	if s == nil {
		s = new(State)
	}
	per := slices.Grow(s.stats.PerKernel[:0], kernels)[:kernels]
	clear(per)
	*s = State{
		prog:        p,
		kernels:     kernels,
		infos:       infos,
		serviceBase: core.ThreadID(len(infos)),
		curBlock:    -1,
		sms:         slices.Grow(s.sms[:0], kernels)[:kernels],
		ctx:         s.ctx[:0],
		cons:        s.cons[:0],
		deg:         s.deg[:0],
		stats:       Stats{PerKernel: per},
	}
	return s
}

// Release ends the State's use and gives it, arrays and all, to the next
// State built: by NewStateCfg, NewState or Tables.Acquire, over any
// program. The SMs of kernels past this run's, an earlier and wider run's,
// are let go first if keeping them would pass the list's bound (see
// FreeList.Put). Call it once the run's stats are read and no driver holds
// the State, also after an aborted run: the caller must not touch the
// State afterwards.
func (s *State) Release() {
	used := cap(s.deg) + cap(s.ctx) + cap(s.cons)
	for _, m := range s.sms {
		used += cap(m.cells)
	}
	spare := 0
	for _, m := range s.sms[len(s.sms):cap(s.sms)] {
		spare += cap(m.cells)
	}
	// A State on the list pins no program.
	s.prog, s.infos = nil, nil
	states.Put(s, used, spare, (*State).dropSpare)
}

// dropSpare lets go of the SMs past the last run's kernels.
func (s *State) dropSpare() { clear(s.sms[len(s.sms):cap(s.sms)]) }

// Kernels returns the number of kernels the TKT distributes over.
func (s *State) Kernels() int { return s.kernels }

// InletID returns the synthesized Inlet DThread ID for block b.
func (s *State) InletID(b int) core.ThreadID { return s.serviceBase + core.ThreadID(2*b) }

// OutletID returns the synthesized Outlet DThread ID for block b.
func (s *State) OutletID(b int) core.ThreadID { return s.serviceBase + core.ThreadID(2*b+1) }

// IsService reports whether inst is a synthesized Inlet or Outlet DThread
// rather than an application thread.
func (s *State) IsService(inst core.Instance) bool { return inst.Thread >= s.serviceBase }

// ServiceName names a service instance for stats and traces.
func (s *State) ServiceName(inst core.Instance) string {
	if !s.IsService(inst) {
		return ""
	}
	off := int(inst.Thread - s.serviceBase)
	if off%2 == 0 {
		return fmt.Sprintf("inlet(%d)", off/2)
	}
	return fmt.Sprintf("outlet(%d)", off/2)
}

// KernelOf implements the Thread-to-Kernel Table (TKT): it returns the
// kernel whose Synchronization Memory holds the given instance, without any
// sequential search (Thread Indexing, §4.2). Service threads are owned by
// the kernel encoded in their context.
func (s *State) KernelOf(inst core.Instance) KernelID {
	if s.IsService(inst) {
		return KernelID(inst.Ctx)
	}
	return s.kernelOfInfo(&s.infos[inst.Thread], inst.Ctx)
}

func (s *State) kernelOfInfo(info *tmplInfo, ctx core.Context) KernelID {
	if info.affinity >= 0 {
		return KernelID(info.affinity % s.kernels)
	}
	if info.inst == 0 {
		return 0
	}
	return KernelID(uint64(ctx) * uint64(s.kernels) / uint64(info.inst))
}

// ownedRange returns the context interval [lo, hi) of template t owned by
// kernel k under the chunked TKT assignment.
func (s *State) ownedRange(t *core.Template, k KernelID) (lo, hi core.Context) {
	if t.Affinity >= 0 {
		if KernelID(t.Affinity%s.kernels) == k {
			return 0, t.Instances
		}
		return 0, 0
	}
	n := uint64(t.Instances)
	kk := uint64(s.kernels)
	lo = core.Context((uint64(k)*n + kk - 1) / kk)
	hi = core.Context(((uint64(k)+1)*n + kk - 1) / kk)
	if hi > t.Instances {
		hi = t.Instances
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Body returns the executable body for an instance: the application body
// for program threads, and a no-op for synthesized Inlet/Outlet threads
// (their actual work — loading and clearing the TSU — happens inside Done,
// which is the TSU side of those threads).
func (s *State) Body(inst core.Instance) core.Body {
	if s.IsService(inst) {
		return func(core.Context) {}
	}
	return s.infos[inst.Thread].body
}

// Template returns the template of an application instance, or nil for
// service instances.
func (s *State) Template(id core.ThreadID) *core.Template {
	if int(id) >= len(s.infos) {
		return nil
	}
	return s.infos[id].t
}

// Start returns the first runnable DThread of the program: the Inlet of
// Block 0, dispatched to kernel 0.
func (s *State) Start() Ready {
	return Ready{Inst: core.Instance{Thread: s.InletID(0), Ctx: 0}, Kernel: 0}
}

// AppendConsumers appends the consumer instances enabled by the completion
// of inst (the arc-expansion half of the Post-Processing Phase). It reads
// only immutable tables and is safe to call from any kernel; ctx is the
// calling kernel's own context scratch, which it grows and keeps so that a
// warm expansion allocates nothing. Service instances have no consumers.
func (s *State) AppendConsumers(dst []core.Instance, ctx *[]core.Context, inst core.Instance) []core.Instance {
	if s.IsService(inst) {
		return dst
	}
	return s.infos[inst.Thread].appendConsumers(dst, ctx, inst.Ctx)
}

// Decrement decreases the Ready Count of target by one and reports whether
// the instance became executable. Only the single TSU driver may call it.
// A decrement below zero means the Synchronization Graph was corrupted and
// panics: Validate makes this unreachable for well-formed programs.
func (s *State) Decrement(target core.Instance) bool {
	_, fired := s.dec(target)
	return fired
}

// DecrementInto applies Decrement and, when the target fires, appends it to
// dst as a Ready with its TKT owner resolved — the batch-building form the
// drivers use to collect a whole Post-Processing Phase without per-target
// allocations.
func (s *State) DecrementInto(dst []Ready, target core.Instance) []Ready {
	if k, fired := s.dec(target); fired {
		dst = append(dst, Ready{Inst: target, Kernel: k})
	}
	return dst
}

// dec performs one Ready Count decrement on behalf of the single driver and
// returns the owning kernel plus whether the target fired.
func (s *State) dec(target core.Instance) (KernelID, bool) {
	info := &s.infos[target.Thread]
	k := s.locate(info, target.Ctx, &s.searchSteps)
	return k, s.applyDec(&s.stats, info, k, target)
}

// applyDec is the plain (non-atomic) Ready Count decrement of target in
// kernel k's Synchronization Memory, reporting whether the instance fired.
// Exactly one goroutine may write a given SM at a time: the single driver,
// or under the sharded engine the stepper of the shard that owns k. st is
// that writer's own counter cell (the State's stats, or a Lane's).
func (s *State) applyDec(st *Stats, info *tmplInfo, k KernelID, target core.Instance) bool {
	if info.block != s.curBlock || !s.loaded {
		panic(fmt.Sprintf("tsu: decrement of %v but block %d is loaded", target, s.curBlock))
	}
	c := s.countAddr(info, k, target.Ctx)
	*c--
	st.Decrements++
	if *c < 0 {
		panic(fmt.Sprintf("tsu: ready count of %v went negative", target))
	}
	if *c == 0 {
		st.Fired++
		st.PerKernel[int(k)]++
		return true
	}
	return false
}

// countAddr returns the Ready Count cell of ctx within kernel k's SM, offset
// from the first context k owns under the chunked range split.
func (s *State) countAddr(info *tmplInfo, k KernelID, ctx core.Context) *int32 {
	m := &s.sms[k]
	return &m.counts[info.dense][ctx-m.base[info.dense]]
}

// DoneInto processes the completion of an instance by kernel k: the
// block-sequencing half of the Post-Processing Phase. For application
// threads it updates the Block's completion count and surfaces the Outlet
// when the Block drains. For an Inlet it loads the Block's metadata into
// the Synchronization Memories and returns the Block's source instances;
// for an Outlet it clears the TSU resources and chains to the next Block's
// Inlet (or ends the program). Newly ready instances are appended to dst,
// so a driver can accumulate one batch across many completions without
// per-completion allocations. blockDone is set when the completion
// finished the current Block's application threads (the Outlet became
// runnable); programDone when the final Block's Outlet completed and all
// kernels must exit.
//
// Ready-count decrements of the completed thread's consumers are NOT done
// here — drivers first expand consumers (AppendConsumers) and apply
// DecrementInto per target, mirroring the TUB protocol. Only the single
// TSU driver may call DoneInto.
func (s *State) DoneInto(dst []Ready, inst core.Instance, k KernelID) (ready []Ready, blockDone, programDone bool) {
	if s.done {
		panic("tsu: Done after program finished")
	}
	if s.IsService(inst) {
		off := int(inst.Thread - s.serviceBase)
		blk := off / 2
		if off%2 == 0 {
			return s.inletDone(dst, blk), false, false
		}
		return s.outletDone(dst, blk, k)
	}
	info := &s.infos[inst.Thread]
	if info.block != s.curBlock || !s.loaded {
		panic(fmt.Sprintf("tsu: completion of %v outside its block", inst))
	}
	s.remaining--
	if s.remaining < 0 {
		panic(fmt.Sprintf("tsu: block %d over-completed at %v", s.curBlock, inst))
	}
	if s.remaining == 0 {
		// All application DThreads of the Block completed: the Outlet
		// becomes runnable on the kernel that finished last.
		dst = append(dst, Ready{Inst: core.Instance{Thread: s.OutletID(s.curBlock), Ctx: core.Context(k)}, Kernel: k})
		return dst, true, false
	}
	return dst, false, false
}

// inletDone performs the TSU-load operation of an Inlet DThread: compute
// the Block's Ready Counts into the Synchronization Memories and surface
// every source instance (Ready Count zero).
func (s *State) inletDone(dst []Ready, blk int) []Ready {
	if blk != s.curBlock+1 || s.loaded {
		panic(fmt.Sprintf("tsu: inlet(%d) out of sequence (current block %d, loaded=%v)", blk, s.curBlock, s.loaded))
	}
	s.curBlock = blk
	s.loaded = true
	s.stats.Inlets++
	b := s.prog.Blocks[blk]
	s.remaining = b.TotalInstances()
	for k := range s.sms {
		s.layout(b, KernelID(k))
	}
	for di, t := range b.Templates {
		info := &s.infos[t.ID]
		s.deg = core.AppendInDegrees(s.deg[:0], b, t)
		for k := range s.sms {
			m := &s.sms[k]
			for i := range m.counts[di] {
				m.counts[di][i] = int32(s.deg[m.base[di]+core.Context(i)])
			}
		}
		for c, d := range s.deg {
			if d == 0 {
				kc := s.kernelOfInfo(info, core.Context(c))
				s.stats.Fired++
				s.stats.PerKernel[int(kc)]++
				dst = append(dst, Ready{Inst: core.Instance{Thread: t.ID, Ctx: core.Context(c)}, Kernel: kc})
			}
		}
	}
	return dst
}

// layout points kernel k's SM at Block b: one count slice per template,
// covering the contexts k owns, carved out of the kernel's cells.
func (s *State) layout(b *core.Block, k KernelID) {
	m := &s.sms[k]
	nT := len(b.Templates)
	m.counts = slices.Grow(m.counts[:0], nT)[:nT]
	m.base = slices.Grow(m.base[:0], nT)[:nT]
	total := 0
	for _, t := range b.Templates {
		lo, hi := s.ownedRange(t, k)
		total += int(hi - lo)
	}
	m.cells = slices.Grow(m.cells[:0], total)[:total]
	off := 0
	for di, t := range b.Templates {
		lo, hi := s.ownedRange(t, k)
		n := int(hi - lo)
		m.base[di] = lo
		m.counts[di] = m.cells[off : off+n : off+n]
		off += n
	}
}

// outletDone performs the TSU-clear operation of an Outlet DThread and
// chains to the next Block's Inlet, or finishes the program after the last
// Block ("the Outlet DThread of the last block ... forces its Kernel to
// exit"). The SM arrays stay for the next Block load to reuse.
func (s *State) outletDone(dst []Ready, blk int, k KernelID) (ready []Ready, blockDone, programDone bool) {
	if blk != s.curBlock || !s.loaded || s.remaining != 0 {
		panic(fmt.Sprintf("tsu: outlet(%d) out of sequence (current block %d, remaining %d)", blk, s.curBlock, s.remaining))
	}
	s.loaded = false
	s.stats.Outlets++
	if blk == len(s.prog.Blocks)-1 {
		s.done = true
		return dst, false, true
	}
	dst = append(dst, Ready{Inst: core.Instance{Thread: s.InletID(blk + 1), Ctx: core.Context(k)}, Kernel: k})
	return dst, false, false
}

// CompleteInto is the whole Post-Processing Phase for single-driver
// platforms (the hardware-device model, the Fleet loop and
// rts.RunStream's windows): it
// expands the consumers of inst, applies all decrements, appends the
// instances that became ready to dst, and then processes the completion
// itself (DoneInto). Arc expansion goes through scratch the State owns, so
// once that scratch and dst have grown a completion allocates nothing.
func (s *State) CompleteInto(dst []Ready, inst core.Instance, k KernelID) (ready []Ready, blockDone, programDone bool) {
	s.cons = s.AppendConsumers(s.cons[:0], &s.ctx, inst)
	for _, c := range s.cons {
		dst = s.DecrementInto(dst, c)
	}
	return s.DoneInto(dst, inst, k)
}

// Finished reports whether the final Outlet has completed.
func (s *State) Finished() bool { return s.done }

// Stats returns a copy of the accumulated counters.
func (s *State) Stats() Stats {
	st := s.stats
	st.PerKernel = append([]int64(nil), s.stats.PerKernel...)
	return st
}
