package core

import "fmt"

// ThreadID identifies a DThread template within a Program. IDs are assigned
// by the program builder and must be unique across the whole program (not
// just within a Block) so that the Thread-to-Kernel Table can be indexed
// directly by ID.
type ThreadID uint32

// Context is the dynamic instance index of a loop DThread. A Template with
// Instances == n has contexts 0..n-1; plain (non-loop) DThreads have a
// single context 0.
type Context uint32

// Instance names one dynamic DThread instance: a template plus a context.
type Instance struct {
	Thread ThreadID
	Ctx    Context
}

func (i Instance) String() string {
	return fmt.Sprintf("T%d.%d", i.Thread, i.Ctx)
}

// Body is the code of a DThread instance. Bodies execute in control-flow
// order on whichever Kernel the TSU dispatched them to; they communicate
// only through the shared buffers declared on the Program (captured by the
// closure). A body must not block on other DThreads: all inter-thread
// ordering is expressed through arcs.
type Body func(ctx Context)

// CostFn returns the compute cost, in CPU cycles, of executing one context
// of a template. It is consulted only by the cycle-level TFluxHard
// simulator; the native platforms measure wall-clock time instead.
type CostFn func(ctx Context) int64

// MemRegion describes a contiguous byte range of a named shared buffer
// touched by one DThread instance. The TFluxHard simulator replays regions
// through its MESI cache hierarchy at cache-line granularity to charge
// memory-system cycles (including coherence misses); the TFluxCell
// substrate uses the same declarations to stage imports/exports between
// main memory and the SPE Local Store via DMA.
type MemRegion struct {
	Buffer string // name of a buffer declared on the Program
	Offset int64  // byte offset within the buffer
	Size   int64  // byte length; zero-size regions are ignored
	Write  bool   // true for exports (produced data), false for imports
	// Stream marks a region that is staged through the SPE Local Store in
	// double-buffered DMA pieces rather than kept resident: its Local
	// Store footprint is the largest piece, not the whole region. This is
	// how operands larger than the Local Store (e.g. the B matrix of a
	// large MMULT) are expressed; the cycle simulator ignores the flag
	// (cache behaviour is identical either way).
	Stream bool
}

// AccessFn returns the shared-memory regions one context touches. It may
// return nil for threads that only use private data (e.g. TRAPEZ workers,
// whose partial sums travel through a tiny result buffer). A caller may
// retain the returned slice but never writes to it, so a model must not
// reuse one backing array for the regions of different contexts.
//
// A model must be pure: the same ctx gives the same regions for the life
// of the program. ddmlint, the Fleet and its workers ask once and read
// the answer from the program's AccessTable from then on, so a program is
// frozen once it has been linted or opened — replacing a model, changing
// Instances or adding a template afterwards is not seen.
type AccessFn func(ctx Context) []MemRegion

// Template is the static description of a DThread.
type Template struct {
	// ID is the program-unique thread identifier.
	ID ThreadID

	// Name is a human-readable label used in stats and error messages.
	Name string

	// Instances is the number of dynamic contexts (>= 1). Loop DThreads
	// produced by unrolling have Instances == ceil(iterations/unroll).
	Instances Context

	// Body is the thread's code, invoked once per context.
	Body Body

	// Arcs are the consumer dependencies: completion of a context of this
	// template decrements the Ready Count of the mapped consumer contexts.
	Arcs []Arc

	// Affinity optionally pins every context of this template to one
	// Kernel (by index). A negative value (the default) lets the TSU
	// distribute contexts across kernels in contiguous chunks.
	Affinity int

	// Cost is the compute-cycle model for the TFluxHard simulator. It may
	// be nil on programs that only run on native platforms.
	Cost CostFn

	// Access is the shared-memory region model for the simulated
	// platforms. It may be nil.
	Access AccessFn
}

// Arc is one producer→consumer dependency edge of the Synchronization
// Graph, from the template that owns it to the template identified by To.
type Arc struct {
	To  ThreadID
	Map Mapping
}

// NewTemplate returns a Template with the given identity and body, a single
// instance, and no affinity. Callers adjust Instances/Arcs/Cost/Access as
// needed; the zero Affinity meaning "pinned to kernel 0" is a common trap,
// so this constructor sets Affinity to -1 (unpinned).
func NewTemplate(id ThreadID, name string, body Body) *Template {
	return &Template{ID: id, Name: name, Instances: 1, Body: body, Affinity: -1}
}

// Then adds a dependency arc from t to the consumer template id using the
// given context mapping, and returns t for chaining.
func (t *Template) Then(to ThreadID, m Mapping) *Template {
	t.Arcs = append(t.Arcs, Arc{To: to, Map: m})
	return t
}
