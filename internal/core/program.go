package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Block is a DDM Block: the subset of a program's DThreads that is resident
// in the TSU at one time. The TSU synthesizes an Inlet DThread (loads the
// Block's metadata) and an Outlet DThread (clears the TSU and chains to the
// next Block) around each Block; those do not appear here.
//
// All arcs of a Block's templates must point to templates of the same
// Block: cross-Block ordering is implicit in the Block sequence, exactly as
// in the paper (a Block's Inlet only runs once the previous Block's Outlet
// has completed).
type Block struct {
	ID        int
	Templates []*Template
}

// Buffer declares a named shared-memory buffer DThreads communicate
// through. On native platforms buffers are ordinary Go slices captured by
// the bodies; the declaration exists so the simulated platforms can lay the
// buffer out in the simulated address space (TFluxHard) or budget Local
// Store residency and DMA traffic (TFluxCell).
type Buffer struct {
	Name string
	Size int64 // bytes
}

// Program is a complete DDM program: an ordered list of Blocks plus the
// shared buffers they use.
type Program struct {
	Name    string
	Blocks  []*Block
	Buffers []Buffer

	// access is built by the first AccessTable call; a program is not
	// copied by value.
	accessOnce sync.Once
	access     *AccessTable
}

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program {
	return &Program{Name: name}
}

// AddBlock appends a new empty Block and returns it.
func (p *Program) AddBlock() *Block {
	b := &Block{ID: len(p.Blocks)}
	p.Blocks = append(p.Blocks, b)
	return b
}

// AddBuffer declares a shared buffer. Declaring the same name twice is a
// validation error.
func (p *Program) AddBuffer(name string, size int64) {
	p.Buffers = append(p.Buffers, Buffer{Name: name, Size: size})
}

// Add appends a template to the Block and returns it for chaining.
func (b *Block) Add(t *Template) *Template {
	b.Templates = append(b.Templates, t)
	return t
}

// Template returns the template with the given ID, or nil.
func (b *Block) Template(id ThreadID) *Template {
	for _, t := range b.Templates {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Template returns the template with the given program-unique ID, or nil.
// IDs are unique program-wide (Validate enforces it), so the first match is
// the only one. Shared by the static analyses (internal/ddmlint) and the
// DOT renderer.
func (p *Program) Template(id ThreadID) *Template {
	for _, b := range p.Blocks {
		if t := b.Template(id); t != nil {
			return t
		}
	}
	return nil
}

// TemplateName formats a thread ID with its template name for error
// messages, e.g. `2 ("scale")`, falling back to the bare ID when the
// program has no such template.
func (p *Program) TemplateName(id ThreadID) string {
	if t := p.Template(id); t != nil {
		return fmt.Sprintf("%d (%q)", id, t.Name)
	}
	return fmt.Sprintf("%d", id)
}

// TotalInstances returns the number of dynamic DThread instances in the
// Block (the quantity that bounds the TSU size in the paper).
func (b *Block) TotalInstances() int64 {
	var n int64
	for _, t := range b.Templates {
		n += int64(t.Instances)
	}
	return n
}

// ValidationError reports a structural problem found by Validate.
type ValidationError struct {
	Program string
	Block   int // -1 when not block-specific
	Msg     string
}

func (e *ValidationError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("ddm program %q: %s", e.Program, e.Msg)
	}
	return fmt.Sprintf("ddm program %q block %d: %s", e.Program, e.Block, e.Msg)
}

func (p *Program) errf(block int, format string, args ...any) error {
	return &ValidationError{Program: p.Name, Block: block, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the structural invariants every TSU implementation relies
// on:
//
//   - at least one Block, each with at least one template;
//   - template IDs unique program-wide;
//   - every template has a body and at least one instance;
//   - arcs stay within their Block and reference existing templates;
//   - OneToOne arcs connect templates with equal instance counts;
//   - the per-Block template graph is acyclic (dataflow firing requires a
//     partial order; self-arcs and cycles would deadlock the TSU);
//   - every Block has at least one source instance (Ready Count zero),
//     otherwise the Block could never start;
//   - buffer names are unique and sizes positive;
//   - MemRegions returned by Access models stay within declared buffers
//     (checked lazily by the platforms, not here, since Access is a
//     function of context).
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return p.errf(-1, "no blocks")
	}
	seen := make(map[ThreadID]string)
	bufs := make(map[string]int64, len(p.Buffers))
	for _, buf := range p.Buffers {
		if buf.Name == "" {
			return p.errf(-1, "buffer with empty name")
		}
		if buf.Size <= 0 {
			return p.errf(-1, "buffer %q has non-positive size %d", buf.Name, buf.Size)
		}
		if _, dup := bufs[buf.Name]; dup {
			return p.errf(-1, "duplicate buffer %q", buf.Name)
		}
		bufs[buf.Name] = buf.Size
	}
	for _, b := range p.Blocks {
		if len(b.Templates) == 0 {
			return p.errf(b.ID, "empty block")
		}
		local := make(map[ThreadID]*Template, len(b.Templates))
		for _, t := range b.Templates {
			if prev, dup := seen[t.ID]; dup {
				return p.errf(b.ID, "thread id %d (%q) already used by %q", t.ID, t.Name, prev)
			}
			seen[t.ID] = t.Name
			local[t.ID] = t
			if t.Body == nil {
				return p.errf(b.ID, "thread %d (%q) has nil body", t.ID, t.Name)
			}
			if t.Instances == 0 {
				return p.errf(b.ID, "thread %d (%q) has zero instances", t.ID, t.Name)
			}
		}
		for _, t := range b.Templates {
			for _, a := range t.Arcs {
				c, ok := local[a.To]
				if !ok {
					return p.errf(b.ID, "thread %d (%q) depends-arc to unknown thread %s (arcs may not cross blocks)", t.ID, t.Name, p.TemplateName(a.To))
				}
				if a.Map == nil {
					return p.errf(b.ID, "arc %d (%q) -> %d (%q) has nil mapping", t.ID, t.Name, c.ID, c.Name)
				}
				if _, one := a.Map.(OneToOne); one && t.Instances != c.Instances {
					return p.errf(b.ID, "one-to-one arc %d (%q) -> %d (%q) between unequal instance counts %d and %d", t.ID, t.Name, c.ID, c.Name, t.Instances, c.Instances)
				}
				if a.To == t.ID {
					// Self-arcs are legal only for strictly increasing
					// context mappings (wavefronts): every dependency
					// then points at a later instance and the
					// instance-level graph stays acyclic.
					if m, ok := a.Map.(Monotone); !ok || !m.StrictlyIncreasing() {
						return p.errf(b.ID, "thread %d (%q) has a self arc with a non-monotone mapping %s", t.ID, t.Name, a.Map)
					}
				}
			}
		}
		if err := checkAcyclic(p, b); err != nil {
			return err
		}
		if !hasSource(b) {
			return p.errf(b.ID, "no source instance (every instance has producers); block can never start")
		}
	}
	return nil
}

// checkAcyclic rejects cycles in the template-level graph of a Block via
// Kahn's algorithm.
func checkAcyclic(p *Program, b *Block) error {
	indeg := make(map[ThreadID]int, len(b.Templates))
	for _, t := range b.Templates {
		if _, ok := indeg[t.ID]; !ok {
			indeg[t.ID] = 0
		}
		for _, a := range t.Arcs {
			if a.To == t.ID {
				continue // validated monotone self-arc: acyclic at instance level
			}
			indeg[a.To]++
		}
	}
	queue := make([]ThreadID, 0, len(indeg))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	// Deterministic order for reproducible error messages.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		t := b.Template(id)
		for _, a := range t.Arcs {
			if a.To == t.ID {
				continue
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	if processed != len(indeg) {
		var cyclic []ThreadID
		for id, d := range indeg {
			if d > 0 {
				cyclic = append(cyclic, id)
			}
		}
		sort.Slice(cyclic, func(i, j int) bool { return cyclic[i] < cyclic[j] })
		names := make([]string, len(cyclic))
		for i, id := range cyclic {
			names[i] = p.TemplateName(id)
		}
		return p.errf(b.ID, "dependency cycle among threads %s", strings.Join(names, ", "))
	}
	return nil
}

// hasSource reports whether any instance of the Block has in-degree zero.
func hasSource(b *Block) bool {
	for _, t := range b.Templates {
		indeg := InDegrees(b, t)
		for _, d := range indeg {
			if d == 0 {
				return true
			}
		}
	}
	return false
}

// InDegrees computes the initial Ready Count of every context of consumer
// template c within Block b: the sum over all incoming arcs of the per-arc
// in-degree. This is the value the Inlet DThread loads into the TSU's
// Synchronization Memory.
func InDegrees(b *Block, c *Template) []uint32 {
	deg := make([]uint32, c.Instances)
	for _, t := range b.Templates {
		for _, a := range t.Arcs {
			if a.To != c.ID {
				continue
			}
			for cctx := Context(0); cctx < c.Instances; cctx++ {
				deg[cctx] += a.Map.InDegree(cctx, t.Instances, c.Instances)
			}
		}
	}
	return deg
}

// ErrNoBody is returned by helpers that require an executable body.
var ErrNoBody = errors.New("core: template has no body")
