package ddmlint

import (
	"fmt"
	"io"

	"tflux/internal/core"
)

// Kind classifies a finding.
type Kind int

const (
	// KindReadyCount: the Ready Count the TSU will load for a context
	// disagrees with the decrements its producers actually deliver.
	KindReadyCount Kind = iota
	// KindDeadInstance: a context that can never become ready (its count
	// never reaches zero), directly or transitively.
	KindDeadInstance
	// KindInstanceCycle: a dependency cycle that only exists after
	// expanding context mappings (the template graph is acyclic).
	KindInstanceCycle
	// KindBadTarget: a mapping emits a consumer context outside the
	// consumer's instance range; the TSU would index out of bounds.
	KindBadTarget
	// KindRace: two concurrently-enabled instances touch overlapping
	// regions of a buffer, at least one writing, with no arc path
	// ordering them.
	KindRace
	// KindWriteConflict: two unordered instances both write overlapping
	// regions — the final contents depend on scheduling.
	KindWriteConflict
	// KindBufferBounds: a declared region exceeds its buffer's bounds.
	KindBufferBounds
	// KindUndeclaredBuffer: a region names a buffer the program never
	// declared.
	KindUndeclaredBuffer
	// KindStaleScratch (streaming): an instance reads slot-indexed
	// scratch elements no same-window write happens-before, so the read
	// observes whatever the slot's previous occupant left behind.
	KindStaleScratch
	// KindShedUnsafe (streaming): a stage or export accumulates state
	// across windows while the backpressure policy is Shed — dropped
	// windows silently skew the accumulated result.
	KindShedUnsafe
	// KindPadLeak (streaming): in a padded partial final window, a stage
	// reads scratch elements only the skipped entry body would have
	// written, so the previous occupant's data flows into the export.
	KindPadLeak
	// KindLifecycle (streaming): the per-window graph cannot walk the
	// WindowRef lifecycle (Open → Encode/Decrement → Done → Release)
	// cleanly — a windowed-SM panic or a permanently pinned slot is
	// reachable.
	KindLifecycle
	// KindBudget (streaming): the (pipeline shape, slot budget, worker
	// count) configuration voids RunStream's no-deadlock capacity
	// argument or the windowed engine's admission conditions.
	KindBudget
)

var kindNames = [...]string{
	KindReadyCount:       "ready-count",
	KindDeadInstance:     "dead-instance",
	KindInstanceCycle:    "instance-cycle",
	KindBadTarget:        "bad-target",
	KindRace:             "race",
	KindWriteConflict:    "write-conflict",
	KindBufferBounds:     "buffer-bounds",
	KindUndeclaredBuffer: "undeclared-buffer",
	KindStaleScratch:     "stale-scratch",
	KindShedUnsafe:       "shed-unsafe",
	KindPadLeak:          "pad-leak",
	KindLifecycle:        "lifecycle",
	KindBudget:           "budget",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Structural reports whether findings of this kind describe a broken
// synchronization graph (a program that will panic, deadlock, or corrupt
// TSU state at runtime) as opposed to a race between declared memory
// accesses. Frontends use the distinction to decide severity: DDMCPP
// compiles through race warnings but refuses structural errors.
func (k Kind) Structural() bool {
	switch k {
	case KindRace, KindWriteConflict, KindStaleScratch, KindShedUnsafe, KindPadLeak:
		// Data findings: the graph fires and drains, but what the bodies
		// compute is schedule- or policy-dependent.
		return false
	}
	return true
}

// Finding is one verified problem, aggregated over every context it
// affects (Count), with exemplar instances for the message.
type Finding struct {
	Kind      Kind
	Block     int
	Threads   []core.ThreadID // implicated templates
	Arcs      []core.ArcKey   // implicated arcs, when arc provenance exists
	Instances []core.Instance // exemplar instances
	Buffer    string          // buffer name for memory findings
	Count     int             // contexts / pairs aggregated into this finding
	Msg       string
}

func (f *Finding) String() string {
	return fmt.Sprintf("[%s] block %d: %s", f.Kind, f.Block, f.Msg)
}

// Report is the result of linting one program.
type Report struct {
	Program  string
	Findings []Finding
	// Notes records analyses that were skipped and why (size caps,
	// cyclic graph), so a clean Findings list is never silently partial.
	Notes []string
}

// OK reports whether the program has no findings. A Report with Notes but
// no Findings is OK — the notes say which guarantees were not checked.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Structural reports whether any finding is structural (see
// Kind.Structural).
func (r *Report) Structural() bool {
	for i := range r.Findings {
		if r.Findings[i].Kind.Structural() {
			return true
		}
	}
	return false
}

// Err returns nil for a clean report, otherwise an error summarizing it.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("ddmlint: %d finding(s) in program %q (first: %s)",
		len(r.Findings), r.Program, r.Findings[0].String())
}

// Highlight returns the DOT overlay marking every implicated template and
// arc, for rendering with core.WriteDOTHighlight.
func (r *Report) Highlight() *core.DOTHighlight {
	hl := &core.DOTHighlight{
		Threads: make(map[core.ThreadID]bool),
		Arcs:    make(map[core.ArcKey]bool),
	}
	for i := range r.Findings {
		for _, t := range r.Findings[i].Threads {
			hl.Threads[t] = true
		}
		for _, a := range r.Findings[i].Arcs {
			hl.Arcs[a] = true
		}
	}
	return hl
}

// WriteText renders the report for humans, one line per finding.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if r.OK() {
		pr("ddmlint: %q: ok (no findings)\n", r.Program)
	} else {
		pr("ddmlint: %q: %d finding(s)\n", r.Program, len(r.Findings))
		for i := range r.Findings {
			pr("  %s\n", r.Findings[i].String())
		}
	}
	for _, n := range r.Notes {
		pr("  note: %s\n", n)
	}
	return err
}

// Options bounds the analysis. Zero values select the defaults. Every cap
// that skips an analysis leaves a Note on the report.
type Options struct {
	// MaxInstances caps the total instance count of a single Block; a
	// larger Block is not expanded at all.
	MaxInstances int
	// MaxEdges caps the materialized instance-graph edges per Block.
	MaxEdges int
	// MaxRaceInstances caps the number of accessor instances (contexts
	// with a non-empty Access model) the race pass compares pairwise.
	MaxRaceInstances int
	// MaxRaceBytes caps the memory spent on reachability bitsets.
	MaxRaceBytes int64
}

const (
	defaultMaxInstances     = 1 << 20
	defaultMaxEdges         = 1 << 23
	defaultMaxRaceInstances = 8192
	defaultMaxRaceBytes     = 64 << 20
)

func (o Options) withDefaults() Options {
	if o.MaxInstances <= 0 {
		o.MaxInstances = defaultMaxInstances
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = defaultMaxEdges
	}
	if o.MaxRaceInstances <= 0 {
		o.MaxRaceInstances = defaultMaxRaceInstances
	}
	if o.MaxRaceBytes <= 0 {
		o.MaxRaceBytes = defaultMaxRaceBytes
	}
	return o
}

// Lint verifies p with default Options. It returns an error (and no
// Report) when the program fails core.Validate — ddmlint analyzes the
// instance graph of structurally valid programs; Validate's errors are
// reported by Validate. A non-nil Report with findings is NOT an error
// from Lint; call Report.Err to convert.
func Lint(p *core.Program) (*Report, error) {
	return LintOpts(p, Options{})
}

// LintOpts is Lint with explicit analysis bounds.
func LintOpts(p *core.Program, opts Options) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("ddmlint: program fails validation: %w", err)
	}
	opts = opts.withDefaults()
	r := &Report{Program: p.Name}
	bufs := bufferIndex(p)
	for _, b := range p.Blocks {
		lintBlock(r, p, b, bufs, opts)
	}
	return r, nil
}

func lintBlock(r *Report, p *core.Program, b *core.Block, bufs map[string]int32, opts Options) {
	g, ok := expandBlock(r, p, b, opts)
	if !ok {
		return
	}
	g.checkBadTargets(r)
	g.checkReadyCounts(r)
	g.checkCycles(r)
	g.checkDead(r)
	g.checkBounds(r, bufs)
	if g.hasCycle {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"block %d: race analysis skipped (instance graph is cyclic; no happens-before order exists)", b.ID))
		return
	}
	checkRaces(r, g, bufs, opts)
}
