// Package tflux is the public API of the TFlux platform: a portable
// runtime system for Data-Driven Multithreading (DDM) on commodity
// multicore systems, reproducing Stavrou et al., "TFlux: A Portable
// Platform for Data-Driven Multithreading on Commodity Multicore Systems"
// (ICPP 2008).
//
// A DDM program is a set of DThreads — sequential code blocks scheduled in
// dataflow order: a DThread becomes runnable when all of its producers
// have completed. Programs are built with the fluent builder in this
// package and executed, unchanged, on any of the five platform
// implementations — the paper's three, then two this reproduction adds:
//
//   - RunSoft — TFluxSoft: goroutine Kernels plus a software TSU-emulator
//     (native execution, like the paper's 8-core Xeon runs).
//   - RunHard — TFluxHard: a deterministic cycle-level simulation of a
//     chip multiprocessor with a hardware TSU behind a memory-mapped
//     interface and MESI-coherent caches (like the paper's Simics runs).
//   - RunCell — TFluxCell: a Cell/BE substrate where DThreads run on
//     Local-Store-limited SPEs and all shared data moves by DMA.
//   - RunDistLocal — TFluxDist: worker nodes with private replicas of the
//     shared buffers, a coordinating TSU, and the declared imports and
//     exports as the only data movement between them.
//   - RunVirtual — natively timed bodies scheduled in virtual time on
//     more Kernels than the host has cores.
//
// RunStream runs a windowed pipeline over an event stream on TFluxSoft.
//
// Minimal example (map + reduce):
//
//	parts := make([]float64, 8)
//	var total float64
//	p := tflux.NewProgram("sum")
//	p.Thread(1, "work", func(ctx tflux.Context) {
//		parts[ctx] = float64(ctx) * 2
//	}).Instances(8).Then(2, tflux.AllToOne{})
//	p.Thread(2, "reduce", func(tflux.Context) {
//		for _, v := range parts {
//			total += v
//		}
//	})
//	stats, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 4})
//
// Loop DThreads have Instances > 1; each dynamic instance is identified by
// its Context. Dependencies carry a context Mapping (one-to-one,
// reduction, broadcast, scatter/gather), from which the TSU derives every
// instance's Ready Count.
package tflux

import (
	"io"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/dist"
	"tflux/internal/hardsim"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/stream"
	"tflux/internal/tsu"
	"tflux/internal/vtime"
)

// Core model types, aliased from the internal model so every platform
// implementation and the public API share one program representation.
type (
	// Context is the dynamic instance index of a loop DThread.
	Context = core.Context
	// ThreadID identifies a DThread template within a program.
	ThreadID = core.ThreadID
	// Body is the code of a DThread.
	Body = core.Body
	// MemRegion declares shared-buffer bytes an instance touches; it
	// drives the TFluxHard cache replay and TFluxCell DMA staging.
	MemRegion = core.MemRegion
	// Mapping relates producer contexts to consumer contexts along a
	// dependency arc.
	Mapping = core.Mapping
	// CostFn models an instance's compute cycles for TFluxHard.
	CostFn = core.CostFn
	// AccessFn models an instance's shared-memory regions.
	AccessFn = core.AccessFn
)

// The mapping kinds (see the core package for their exact semantics).
type (
	// OneToOne maps producer context i to consumer context i.
	OneToOne = core.OneToOne
	// AllToOne maps every producer context to one consumer context
	// (reduction).
	AllToOne = core.AllToOne
	// OneToAll maps every producer context to every consumer context
	// (barrier / broadcast).
	OneToAll = core.OneToAll
	// Gather maps producer context i to consumer context i/Fan (merge
	// tree).
	Gather = core.Gather
	// Scatter maps producer context i to consumers [i·Fan, (i+1)·Fan)
	// (fork).
	Scatter = core.Scatter
	// Const maps every producer context to a fixed consumer context.
	Const = core.Const
)

// Program is a DDM program under construction. The zero value is not
// usable; call NewProgram.
type Program struct {
	p   *core.Program
	cur *core.Block
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{p: core.NewProgram(name)}
}

// Buffer declares a named shared buffer of the given byte size. Buffers
// exist so the simulated platforms can lay data out (TFluxHard) and stage
// it through the Local Store (TFluxCell); on TFluxSoft they are
// bookkeeping only.
func (p *Program) Buffer(name string, size int64) *Program {
	p.p.AddBuffer(name, size)
	return p
}

// Block starts a new DDM Block. Threads added afterwards belong to it.
// Blocks execute in order: the TSU loads a Block's synchronization graph
// (Inlet), runs its DThreads to completion, clears it (Outlet), and chains
// to the next. A program that never calls Block gets a single implicit
// Block.
func (p *Program) Block() *Program {
	p.cur = p.p.AddBlock()
	return p
}

// Thread adds a DThread with the given program-unique ID, a diagnostic
// name, and its body. The returned Thread configures instance count,
// dependencies, affinity and platform models.
func (p *Program) Thread(id ThreadID, name string, body Body) *Thread {
	if p.cur == nil {
		p.Block()
	}
	t := core.NewTemplate(id, name, body)
	p.cur.Add(t)
	return &Thread{t: t}
}

// Validate checks the program's structural invariants (unique IDs, arcs
// within blocks, acyclic graphs, every block startable). The Run functions
// validate implicitly; calling it early gives better error locality.
func (p *Program) Validate() error { return p.p.Validate() }

// Thread is the builder handle for one DThread template.
type Thread struct{ t *core.Template }

// Instances makes this a loop DThread with n dynamic contexts.
func (t *Thread) Instances(n Context) *Thread {
	t.t.Instances = n
	return t
}

// Then declares that this thread produces for consumer `to` under the
// given context mapping: completion of a producer instance decrements the
// Ready Counts of the mapped consumer instances.
func (t *Thread) Then(to ThreadID, m Mapping) *Thread {
	t.t.Then(to, m)
	return t
}

// Affinity pins every instance of this thread to one kernel (by index).
func (t *Thread) Affinity(kernel int) *Thread {
	t.t.Affinity = kernel
	return t
}

// Cost sets the compute-cycle model used by TFluxHard.
func (t *Thread) Cost(fn CostFn) *Thread {
	t.t.Cost = fn
	return t
}

// Access sets the shared-memory region model used by TFluxHard (cache
// replay) and TFluxCell (DMA staging).
func (t *Thread) Access(fn AccessFn) *Thread {
	t.t.Access = fn
	return t
}

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.t.ID }

// Platform configuration and result types, aliased to the internal
// implementations (see their package docs for field-level detail).
type (
	// SoftOptions configures TFluxSoft (rts.Options): kernel count, TSU
	// plane, mapping, size and TUB, observability, and stealing. The
	// ready queue is not configurable: it is the paper's §3.1 locality
	// pick.
	SoftOptions = rts.Options
	// SoftStats is the TFluxSoft run report (rts.Stats).
	SoftStats = rts.Stats
	// TUBConfig configures the Thread-to-Update Buffer (tsu.TUBConfig).
	TUBConfig = tsu.TUBConfig
	// HardConfig configures the TFluxHard machine (hardsim.Config):
	// cores, cache geometry, TSU latencies and groups, TSU size and
	// mapping. The inter-group transfer latency (16 cycles) and the 1 GHz
	// trace clock are fixed.
	HardConfig = hardsim.Config
	// HardResult is the TFluxHard cycle-level result (hardsim.Result).
	HardResult = hardsim.Result
	// CellConfig configures the TFluxCell substrate (cellsim.Config):
	// SPE count, TSU size and mapping. Each SPE is the PlayStation 3's:
	// a 256 KiB Local Store with 32 KiB reserved, 16 KiB DMA transfers,
	// a 4-deep mailbox and a 16-command CommandBuffer.
	CellConfig = cellsim.Config
	// CellStats is the TFluxCell run report (cellsim.Stats).
	CellStats = cellsim.Stats
	// CellBuffers registers the byte slices backing a program's buffers
	// (core.SharedVariableBuffer, the paper's §4.3 store): RunCell stages
	// regions of it by DMA, RunDistLocal keeps one per node. The name
	// predates the store's move out of the Cell simulator.
	CellBuffers = core.SharedVariableBuffer
	// VirtualConfig configures virtual-time execution (vtime.Config):
	// the kernel count and the soft or Cell profile, whose TSU costs
	// and DMA model are fixed.
	VirtualConfig = vtime.Config
	// VirtualResult is the virtual-time outcome (vtime.Result).
	VirtualResult = vtime.Result
)

// Observability types, aliased from internal/obs: one event model and one
// metrics registry shared by all platforms. Attach a Recorder via
// SoftOptions.Obs, HardConfig.Obs, CellConfig.Obs, or RunDistLocalObs,
// then export its events with WriteChromeTrace (Perfetto-loadable JSON).
type (
	// Event is one typed observation (obs.Event).
	Event = obs.Event
	// EventSink receives events during a run (obs.Sink).
	EventSink = obs.Sink
	// Recorder is the in-memory event sink (obs.Recorder).
	Recorder = obs.Recorder
	// Metrics is the counter/gauge/histogram registry (obs.Registry).
	// Histograms share one log-linear layout, so a reported quantile is
	// within 1/32 of an observed sample (exact below 32).
	Metrics = obs.Registry
)

// NewRecorder returns an empty in-memory event recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteChromeTrace exports recorded events as Chrome trace-event JSON,
// loadable at ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return obs.WriteChromeTrace(w, events)
}

// NewCellBuffers returns an empty buffer registry for RunCell.
func NewCellBuffers() *CellBuffers { return core.NewSharedVariableBuffer() }

// WriteDOT renders the program's Synchronization Graph in Graphviz DOT
// format (one cluster per DDM Block, one edge per dependency arc).
func WriteDOT(w io.Writer, p *Program) error { return core.WriteDOT(w, p.p) }

// VetReport is the result of Vet (ddmlint.Report): the findings, the
// analysis notes, and helpers to render them (WriteText) or overlay them
// on the DOT graph (Highlight).
type VetReport = ddmlint.Report

// Vet statically verifies the program at instance granularity: it expands
// every DThread to its dynamic contexts through the arc mappings and
// checks Ready-Count consistency, instance-level deadlock, undeclared or
// out-of-bounds buffer regions, and — when Access models are declared —
// unordered conflicting accesses (DDM races). It returns an error only if
// the program fails Validate; findings are reported in the VetReport.
func Vet(p *Program) (*VetReport, error) { return ddmlint.Lint(p.p) }

// DistStats is the distributed run report (dist.Stats).
type DistStats = dist.Stats

// RunDistLocal executes a DDM program on the distributed-memory runtime
// (TFluxDist) entirely within this process: `nodes` worker nodes, each
// hosting kernelsPerNode Kernels and its own replica of the program,
// connected to the coordinating TSU over loopback TCP. build is called
// once per node plus once for the coordinator's canonical copy; it must
// construct fresh program state each time and register every declared
// buffer. All shared-variable movement follows the threads' Access
// declarations (imports in, exports out); the returned buffer registry is
// the coordinator's canonical copy, from which results are read.
//
// To run programs out of process, start the tfluxd daemon (it hosts the
// worker fleet and serves submissions over TCP) and submit to it with
// tfluxrun -connect.
func RunDistLocal(build func() (*Program, *CellBuffers), nodes, kernelsPerNode int) (*DistStats, *CellBuffers, error) {
	return RunDistLocalObs(build, nodes, kernelsPerNode, nil, nil)
}

// RunDistLocalObs is RunDistLocal with coordinator-side observability:
// sink (may be nil) receives DistRPC/ThreadComplete/TSUCommand events and
// reg (may be nil) the RPC latency histogram and traffic totals.
func RunDistLocalObs(build func() (*Program, *CellBuffers), nodes, kernelsPerNode int, sink EventSink, reg *Metrics) (*DistStats, *CellBuffers, error) {
	return dist.RunLocalOpts(func() (*core.Program, *core.SharedVariableBuffer) {
		p, b := build()
		return p.p, b
	}, nodes, kernelsPerNode, dist.Options{Sink: sink, Metrics: reg})
}

// RunSoft executes the program under the TFluxSoft runtime: opt.Kernels
// goroutine Kernels plus a software TSU-emulator goroutine. It blocks
// until the final Block's Outlet completes.
func RunSoft(p *Program, opt SoftOptions) (*SoftStats, error) {
	return rts.Run(p.p, opt)
}

// RunHard executes the program on the simulated TFluxHard chip
// multiprocessor and returns deterministic cycle counts. DThread bodies
// run natively (results are exact); timing uses each thread's Cost and
// Access models.
func RunHard(p *Program, cfg HardConfig) (*HardResult, error) {
	return hardsim.Run(p.p, cfg)
}

// RunCell executes the program on the TFluxCell substrate: cfg.SPEs
// compute nodes with capacity-limited Local Stores, DMA staging of every
// declared region, CommandBuffer/mailbox signalling, and the TSU emulator
// on the PPE. Every buffer declared on the program must be registered in
// bufs.
func RunCell(p *Program, bufs *CellBuffers, cfg CellConfig) (*CellStats, error) {
	return cellsim.Run(p.p, bufs, cfg)
}

// RunVirtual executes the program in virtual time: bodies run natively and
// are timed individually; the returned makespan is the modeled parallel
// execution time on cfg.Kernels workers with software-TSU overheads. Use
// it to study scheduling behaviour on hosts with fewer cores than the
// target configuration.
func RunVirtual(p *Program, cfg VirtualConfig) (*VirtualResult, error) {
	return vtime.Run(p.p, cfg)
}

// Streaming execution: instead of one batch program run to completion,
// a StreamPipeline processes an unbounded event sequence in fixed-size
// windows over a bounded budget of recycled synchronization-memory
// slots. The injector admits events window by window and, at slot
// exhaustion, either blocks the source or sheds whole windows
// (StreamOptions.Policy); the batch Run* entry points above are
// untouched by any of this. See internal/stream and DESIGN.md's
// streaming section for the window lifecycle and the exactly-once
// contract.
type (
	// StreamPipeline is a linear multi-stage streaming program
	// (stream.Pipeline).
	StreamPipeline = stream.Pipeline
	// StreamStage is one pipeline stage: an instance count per window, a
	// body, and a context mapping to the next stage (stream.Stage).
	StreamStage = stream.Stage
	// StreamCtx tells a stage body which window, slot, local context and
	// global event sequence it is running for (stream.Ctx).
	StreamCtx = stream.Ctx
	// StreamSource yields event sequence numbers, optionally paced
	// (stream.Source).
	StreamSource = stream.Source
	// StreamPolicy selects the backpressure behaviour at slot
	// exhaustion (stream.Policy).
	StreamPolicy = stream.Policy
	// StreamOptions configures a streaming run (stream.Options).
	StreamOptions = stream.Options
	// StreamStats is the streaming run report: achieved rate, shed
	// counts, and admission-to-retire latency quantiles, each within
	// 1/32 of a measured latency (stream.Stats).
	StreamStats = stream.Stats
	// StreamScratchDecl declares one slot-indexed scratch array for
	// static verification (stream.ScratchDecl).
	StreamScratchDecl = stream.ScratchDecl
	// StreamScratchAccess declares one element range of a scratch array
	// a stage instance touches (stream.ScratchAccess).
	StreamScratchAccess = stream.ScratchAccess
)

// The backpressure policies.
const (
	// StreamBlock stalls the injector until a window slot retires —
	// lossless, the source absorbs the pressure.
	StreamBlock = stream.Block
	// StreamShed drops whole windows while no slot is free — lossy but
	// rate-stable; StreamStats reports what was shed.
	StreamShed = stream.Shed
)

// NewCountSource returns a StreamSource yielding n events paced at
// eventsPerSec (0 = as fast as admission allows).
func NewCountSource(n int64, eventsPerSec float64) StreamSource {
	return stream.NewCountSource(n, eventsPerSec)
}

// RunStream executes the pipeline over every event the source yields and
// blocks until the final window retires. Windows are admitted into
// opt.Slots recycled SM slots; a partial final window is padded so its
// graph completes. With the StreamBlock policy every admitted event is
// processed exactly once.
func RunStream(p *StreamPipeline, src StreamSource, opt StreamOptions) (StreamStats, error) {
	return rts.RunStream(p, src, opt)
}

// VetStream statically verifies the pipeline across window generations
// for the given run configuration (opt.Slots, opt.Workers and
// opt.Policy parameterize the verdict; zero values mean the RunStream
// defaults). Beyond the batch checks on the per-window graph (see Vet),
// it analyzes the declared slot-scratch model for reads that would
// observe a recycled slot's stale data — in full windows
// (stale-scratch) and in the padded partial final window (pad-leak) —
// flags cross-window accumulators under the Shed policy (shed-unsafe),
// proves the tsu.WindowedSM lifecycle panics unreachable (lifecycle),
// and re-derives RunStream's work-channel capacity argument (budget).
//
// The scratch analysis is exactly as sound as the declarations: stages
// without a ScratchFn contribute nothing to it, and an undeclared
// access is invisible. A pipeline with no scratch model gets only the
// structural, lifecycle and budget guarantees.
func VetStream(p *StreamPipeline, opt StreamOptions) (*VetReport, error) {
	return ddmlint.LintStream(p, ddmlint.StreamConfig{
		Slots:   opt.Slots,
		Workers: opt.Workers,
		Policy:  opt.Policy,
	})
}
