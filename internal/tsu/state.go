package tsu

import (
	"fmt"

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

// Result is what the TSU reports after processing a completion.
type Result struct {
	// NewReady lists instances whose Ready Count reached zero as a direct
	// consequence of the processed event, plus any synthesized Inlet or
	// Outlet DThreads that became runnable.
	NewReady []Ready
	// BlockDone is set when the completion finished the current Block's
	// application threads (the Outlet becomes runnable).
	BlockDone bool
	// ProgramDone is set when the final Block's Outlet completed: all
	// kernels must exit.
	ProgramDone bool
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
// means in §4.2.
type sm struct {
	counts [][]int32      // indexed by dense template index, then ctx-base
	base   []core.Context // first owned context per template
}

// State is the synchronization engine of the TSU Group. It is not safe for
// concurrent mutation: one driver (the software TSU emulator, the Cell PPE
// loop, or the simulated hardware device) serializes Decrement/Done calls.
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

	// tables is set when the State was built over a frozen Tables: block
	// loads restore the SMs from the snapshot instead of recomputing
	// in-degrees, and Release returns the State to the Tables' pool.
	tables *Tables

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

	// ctx and cons are CompleteInto's arc-expansion scratch: the driver's
	// own, like the SMs, so a State kept across runs (Tables.Acquire)
	// keeps them grown.
	ctx  []core.Context
	cons []core.Instance

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
	infos, err := buildThreadTable(p.Blocks)
	if err != nil {
		return nil, err
	}
	s := &State{
		prog:        p,
		kernels:     kernels,
		infos:       infos,
		serviceBase: core.ThreadID(len(infos)),
		curBlock:    -1,
		sms:         make([]sm, kernels),
	}
	s.stats.PerKernel = make([]int64, kernels)
	return s, nil
}

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
	return s.infos[inst.Thread].appendConsumers(dst, ctx, inst.Ctx, 0)
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

// Done processes the completion of an instance by kernel k: the
// block-sequencing half of the Post-Processing Phase. For application
// threads it updates the Block's completion count and surfaces the Outlet
// when the Block drains. For an Inlet it loads the Block's metadata into
// the Synchronization Memories and returns the Block's source instances;
// for an Outlet it clears the TSU resources and chains to the next Block's
// Inlet (or ends the program).
//
// Ready-count decrements of the completed thread's consumers are NOT done
// here — drivers first expand consumers (AppendConsumers) and apply
// Decrement per target, mirroring the TUB protocol. Only the single TSU
// driver may call Done.
func (s *State) Done(inst core.Instance, k KernelID) Result {
	ready, blockDone, programDone := s.DoneInto(nil, inst, k)
	return Result{NewReady: ready, BlockDone: blockDone, ProgramDone: programDone}
}

// DoneInto is Done with the newly ready instances appended to dst instead
// of a freshly allocated slice, so a driver can accumulate one batch across
// many completions without per-completion allocations.
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

// inletDone performs the TSU-load operation of an Inlet DThread: allocate
// and initialize the Synchronization Memories for the block and surface
// every source instance (Ready Count zero).
func (s *State) inletDone(dst []Ready, blk int) []Ready {
	if blk != s.curBlock+1 || s.loaded {
		panic(fmt.Sprintf("tsu: inlet(%d) out of sequence (current block %d, loaded=%v)", blk, s.curBlock, s.loaded))
	}
	s.curBlock = blk
	s.loaded = true
	s.stats.Inlets++
	if s.tables != nil {
		return s.inletLoadSnapshot(dst, blk)
	}
	b := s.prog.Blocks[blk]
	s.remaining = b.TotalInstances()
	for k := range s.sms {
		s.sms[k].counts = make([][]int32, len(b.Templates))
		s.sms[k].base = make([]core.Context, len(b.Templates))
	}
	for di, t := range b.Templates {
		info := &s.infos[t.ID]
		deg := core.InDegrees(b, t)
		for k := 0; k < s.kernels; k++ {
			lo, hi := s.ownedRange(t, KernelID(k))
			s.sms[k].base[di] = lo
			if hi > lo {
				cnt := make([]int32, hi-lo)
				for c := lo; c < hi; c++ {
					cnt[c-lo] = int32(deg[c])
				}
				s.sms[k].counts[di] = cnt
			}
		}
		for c := core.Context(0); c < t.Instances; c++ {
			if deg[c] == 0 {
				kc := s.kernelOfInfo(info, c)
				s.stats.Fired++
				s.stats.PerKernel[int(kc)]++
				dst = append(dst, Ready{Inst: core.Instance{Thread: t.ID, Ctx: c}, Kernel: kc})
			}
		}
	}
	return dst
}

// outletDone performs the TSU-clear operation of an Outlet DThread and
// chains to the next Block's Inlet, or finishes the program after the last
// Block ("the Outlet DThread of the last block ... forces its Kernel to
// exit").
func (s *State) outletDone(dst []Ready, blk int, k KernelID) (ready []Ready, blockDone, programDone bool) {
	if blk != s.curBlock || !s.loaded || s.remaining != 0 {
		panic(fmt.Sprintf("tsu: outlet(%d) out of sequence (current block %d, remaining %d)", blk, s.curBlock, s.remaining))
	}
	s.loaded = false
	s.stats.Outlets++
	if s.tables == nil {
		// Snapshot-backed States keep the SM backing arrays so the next
		// block load (or the next run after Reset) reuses them.
		for i := range s.sms {
			s.sms[i].counts = nil
			s.sms[i].base = nil
		}
	}
	if blk == len(s.prog.Blocks)-1 {
		s.done = true
		return dst, false, true
	}
	dst = append(dst, Ready{Inst: core.Instance{Thread: s.InletID(blk + 1), Ctx: core.Context(k)}, Kernel: k})
	return dst, false, false
}

// Complete is the convenience path used by single-driver platforms (the
// Cell PPE emulator and the hardware-device model): it expands the
// consumers of inst, applies all decrements, collects the instances that
// became ready, and then processes the completion itself.
func (s *State) Complete(inst core.Instance, k KernelID) Result {
	ready, blockDone, programDone := s.CompleteInto(nil, inst, k)
	return Result{NewReady: ready, BlockDone: blockDone, ProgramDone: programDone}
}

// CompleteInto is Complete with every newly ready instance appended to dst,
// the form single-driver platforms use with a reusable batch buffer. Arc
// expansion goes through scratch the State owns, so once that scratch and
// dst have grown a completion allocates nothing.
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
