package ddmlint

import (
	"fmt"
	"slices"
	"sort"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// arcRef is one arc of the Block, flattened into program order so edges
// can carry provenance as a small index.
type arcRef struct {
	from *core.Template
	to   *core.Template
	arc  core.Arc
}

func (a *arcRef) key() core.ArcKey { return core.ArcKey{From: a.from.ID, To: a.arc.To} }

// edge is one instance-graph edge: completing instance `from` decrements
// the ready count of instance `to`, via arcs[arc].
type edge struct {
	from, to int32
	arc      int32
}

// badTarget aggregates out-of-range targets emitted by one arc.
type badTarget struct {
	count int
	pctx  core.Context // exemplar producer context
	cctx  core.Context // exemplar (invalid) consumer context
}

// blockGraph is one Block expanded to instance granularity. A lint takes
// one from graphs for each Block and releases it once the Block's findings
// are out, so its arrays are grown once and reused by later lints, of any
// program: every pass overwrites what it reads, and no Finding keeps any
// of them.
type blockGraph struct {
	p     *core.Program
	b     *core.Block
	tmpls []*core.Template
	base  []int32 // base[i] = first instance index of tmpls[i]
	n     int32   // total instances
	arcs  []arcRef

	declared  []int64 // ready count the TSU loads, per instance
	delivered []int64 // decrements producers actually deliver, per instance

	edges  []edge  // sorted by from (CSR payload)
	estart []int32 // CSR offsets, len n+1

	bad map[int32]*badTarget // arc index -> aggregated out-of-range targets

	// Filled by checkCycles.
	topo     []int32 // topological order of all instances (valid iff !hasCycle)
	cyclic   []bool
	hasCycle bool

	// Filled by checkBounds: the Block's access table.
	accs []accessor

	// Scratch of the passes: expand's (tIdx, deg, ctxs, spare, fill),
	// the graph walks' (count, queue, fired), accessorOrder's (accOf,
	// reach) and reportRaces' (items).
	tIdx  map[core.ThreadID]int
	deg   []uint32
	ctxs  []core.Context
	spare []edge
	fill  []int32
	count []int64
	queue []int32
	fired []bool
	accOf []int32
	reach []uint64
	items []raceItem
}

// graphs holds the block graphs of finished lints.
var graphs tsu.FreeList[blockGraph]

// takeGraph returns a block graph for expand, recycled when one is free.
func takeGraph() *blockGraph {
	if g := graphs.Get(); g != nil {
		return g
	}
	return &blockGraph{bad: make(map[int32]*badTarget), tIdx: make(map[core.ThreadID]int)}
}

// release gives the graph to a later lint. It keeps no program: only the
// arrays.
func (g *blockGraph) release() {
	clear(g.arcs)
	clear(g.accs)
	g.p, g.b, g.tmpls = nil, nil, nil
	n := cap(g.base) + cap(g.arcs) + cap(g.declared) + cap(g.delivered) + cap(g.edges) +
		cap(g.estart) + cap(g.topo) + cap(g.cyclic) + cap(g.accs) + cap(g.deg) + cap(g.ctxs) +
		cap(g.spare) + cap(g.fill) + cap(g.count) + cap(g.queue) + cap(g.fired) +
		cap(g.accOf) + cap(g.reach) + cap(g.items)
	graphs.Put(g, n, 0, nil)
}

// zeroed returns s resized to n zero elements, in s's array when it holds
// n.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// inst returns the global instance index of (template index, context).
func (g *blockGraph) inst(ti int, ctx core.Context) int32 {
	return g.base[ti] + int32(ctx)
}

// owner returns the template owning instance i and its context.
func (g *blockGraph) owner(i int32) (t *core.Template, ctx core.Context) {
	// base is ascending; binary search for the owning template.
	ti := sort.Search(len(g.base), func(k int) bool { return g.base[k] > i }) - 1
	return g.tmpls[ti], core.Context(i - g.base[ti])
}

func (g *blockGraph) instance(i int32) core.Instance {
	t, ctx := g.owner(i)
	return core.Instance{Thread: t.ID, Ctx: ctx}
}

// expand materializes the instance graph of b into g. It returns false
// (with a Note on r) when the Block exceeds the analysis caps.
func (g *blockGraph) expand(r *Report, p *core.Program, b *core.Block, opts Options) bool {
	var total int64
	for _, t := range b.Templates {
		total += int64(t.Instances)
	}
	if total > int64(opts.MaxInstances) {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"block %d: not analyzed (%d instances exceeds MaxInstances %d)", b.ID, total, opts.MaxInstances))
		return false
	}
	g.p, g.b, g.tmpls = p, b, b.Templates
	g.base = zeroed(g.base, len(b.Templates))
	g.n = int32(total)
	g.arcs = g.arcs[:0]
	clear(g.bad)
	g.topo, g.cyclic, g.hasCycle = g.topo[:0], g.cyclic[:0], false
	g.accs = g.accs[:0]
	tIdx := g.tIdx
	clear(tIdx)
	var off int32
	for i, t := range b.Templates {
		g.base[i] = off
		tIdx[t.ID] = i
		off += int32(t.Instances)
	}
	g.declared = zeroed(g.declared, int(g.n))
	g.delivered = zeroed(g.delivered, int(g.n))
	// The declared ready counts sum to the edge count of any Block whose
	// mappings agree with themselves, so the edge list is sized once.
	var fan int64
	for i, t := range b.Templates {
		g.deg = core.AppendInDegrees(g.deg[:0], b, t)
		for ctx, d := range g.deg {
			g.declared[g.inst(i, core.Context(ctx))] = int64(d)
			fan += int64(d)
		}
	}
	g.edges = slices.Grow(g.edges[:0], int(min(fan, int64(opts.MaxEdges)+1)))

	// Walk every arc through AppendTargets — the exact call sequence the
	// TSU performs on each producer completion — recording deliveries,
	// edges, and out-of-range targets.
	for _, t := range b.Templates {
		for _, a := range t.Arcs {
			ci := tIdx[a.To] // Validate guarantees presence
			c := b.Templates[ci]
			ai := int32(len(g.arcs))
			g.arcs = append(g.arcs, arcRef{from: t, to: c, arc: a})
			for pctx := core.Context(0); pctx < t.Instances; pctx++ {
				g.ctxs = a.Map.AppendTargets(g.ctxs[:0], pctx, t.Instances, c.Instances)
				for _, cctx := range g.ctxs {
					if cctx >= c.Instances {
						bt := g.bad[ai]
						if bt == nil {
							bt = &badTarget{pctx: pctx, cctx: cctx}
							g.bad[ai] = bt
						}
						bt.count++
						continue
					}
					to := g.inst(ci, cctx)
					g.delivered[to]++
					g.edges = append(g.edges, edge{from: g.inst(tIdx[t.ID], pctx), to: to, arc: ai})
					if len(g.edges) > opts.MaxEdges {
						r.Notes = append(r.Notes, fmt.Sprintf(
							"block %d: not analyzed (instance graph exceeds MaxEdges %d)", b.ID, opts.MaxEdges))
						return false
					}
				}
			}
		}
	}

	// CSR by source instance, via counting sort (edges arrive grouped by
	// producer template but not globally sorted by instance).
	g.estart = zeroed(g.estart, int(g.n)+1)
	for i := range g.edges {
		g.estart[g.edges[i].from+1]++
	}
	for i := int32(0); i < g.n; i++ {
		g.estart[i+1] += g.estart[i]
	}
	sorted := slices.Grow(g.spare[:0], len(g.edges))[:len(g.edges)]
	fill := zeroed(g.fill, int(g.n))
	for i := range g.edges {
		e := g.edges[i]
		sorted[g.estart[e.from]+fill[e.from]] = e
		fill[e.from]++
	}
	g.edges, g.spare, g.fill = sorted, g.edges, fill
	return true
}

// out returns the outgoing edges of instance i.
func (g *blockGraph) out(i int32) []edge {
	return g.edges[g.estart[i]:g.estart[i+1]]
}

// checkBadTargets reports arcs whose mapping emits consumer contexts
// outside the consumer's instance range.
func (g *blockGraph) checkBadTargets(r *Report) {
	// Iterate arcs in program order for deterministic output.
	for ai := int32(0); ai < int32(len(g.arcs)); ai++ {
		bt, ok := g.bad[ai]
		if !ok {
			continue
		}
		a := &g.arcs[ai]
		r.Findings = append(r.Findings, Finding{
			Kind:      KindBadTarget,
			Block:     g.b.ID,
			Threads:   []core.ThreadID{a.from.ID, a.to.ID},
			Arcs:      []core.ArcKey{a.key()},
			Instances: []core.Instance{{Thread: a.from.ID, Ctx: bt.pctx}},
			Count:     bt.count,
			Msg: fmt.Sprintf(
				"arc %s -> %s (%s) emits %d out-of-range consumer context(s): e.g. producer context %d targets consumer context %d, but the consumer has %d instance(s)",
				g.p.TemplateName(a.from.ID), g.p.TemplateName(a.to.ID), a.arc.Map,
				bt.count, bt.pctx, bt.cctx, a.to.Instances),
		})
	}
}

// incomingArcKeys returns the ArcKeys of every arc targeting template id.
func (g *blockGraph) incomingArcKeys(id core.ThreadID) []core.ArcKey {
	var keys []core.ArcKey
	for i := range g.arcs {
		if g.arcs[i].arc.To == id {
			keys = append(keys, g.arcs[i].key())
		}
	}
	return keys
}

// checkReadyCounts reports contexts whose loaded Ready Count disagrees
// with the decrements actually delivered, aggregated per template.
func (g *blockGraph) checkReadyCounts(r *Report) {
	for ti, t := range g.tmpls {
		var count int
		var exCtx core.Context
		var exDecl, exDeliv int64
		for ctx := core.Context(0); ctx < t.Instances; ctx++ {
			i := g.inst(ti, ctx)
			if g.declared[i] == g.delivered[i] {
				continue
			}
			if count == 0 {
				exCtx, exDecl, exDeliv = ctx, g.declared[i], g.delivered[i]
			}
			count++
		}
		if count == 0 {
			continue
		}
		consequence := "the context can never be enabled"
		if exDeliv > exDecl {
			consequence = "the TSU's ready count goes negative at runtime (double-fire)"
		}
		r.Findings = append(r.Findings, Finding{
			Kind:      KindReadyCount,
			Block:     g.b.ID,
			Threads:   []core.ThreadID{t.ID},
			Arcs:      g.incomingArcKeys(t.ID),
			Instances: []core.Instance{{Thread: t.ID, Ctx: exCtx}},
			Count:     count,
			Msg: fmt.Sprintf(
				"thread %s: %d of %d context(s) load a Ready Count that disagrees with actual producer decrements: e.g. %s loads %d but receives %d, so %s",
				g.p.TemplateName(t.ID), count, t.Instances,
				core.Instance{Thread: t.ID, Ctx: exCtx}, exDecl, exDeliv, consequence),
		})
	}
}

// checkCycles runs Kahn's algorithm over the instance graph, recording a
// topological order and reporting instances trapped in cycles.
func (g *blockGraph) checkCycles(r *Report) {
	indeg := append(g.count[:0], g.delivered...) // every materialized edge is one delivery
	g.count = indeg
	// Kahn's queue is the topological order itself: every instance
	// dequeued is appended next.
	topo := slices.Grow(g.topo[:0], int(g.n))
	for i := int32(0); i < g.n; i++ {
		if indeg[i] == 0 {
			topo = append(topo, i)
		}
	}
	for h := 0; h < len(topo); h++ {
		for _, e := range g.out(topo[h]) {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				topo = append(topo, e.to)
			}
		}
	}
	g.topo = topo
	if int32(len(g.topo)) == g.n {
		return
	}
	g.hasCycle = true
	g.cyclic = zeroed(g.cyclic, int(g.n))
	count := 0
	var exemplars []core.Instance
	threadSet := make(map[core.ThreadID]bool)
	for i := int32(0); i < g.n; i++ {
		if indeg[i] > 0 {
			g.cyclic[i] = true
			count++
			t, _ := g.owner(i)
			threadSet[t.ID] = true
			if len(exemplars) < 4 {
				exemplars = append(exemplars, g.instance(i))
			}
		}
	}
	// Arcs contributing an edge inside the cyclic set.
	arcSet := make(map[int32]bool)
	for i := range g.edges {
		e := &g.edges[i]
		if g.cyclic[e.from] && g.cyclic[e.to] {
			arcSet[e.arc] = true
		}
	}
	var arcs []core.ArcKey
	for ai := int32(0); ai < int32(len(g.arcs)); ai++ {
		if arcSet[ai] {
			arcs = append(arcs, g.arcs[ai].key())
		}
	}
	threads := make([]core.ThreadID, 0, len(threadSet))
	for id := range threadSet {
		threads = append(threads, id)
	}
	sort.Slice(threads, func(a, b int) bool { return threads[a] < threads[b] })
	names := make([]string, len(threads))
	for i, id := range threads {
		names[i] = g.p.TemplateName(id)
	}
	r.Findings = append(r.Findings, Finding{
		Kind:      KindInstanceCycle,
		Block:     g.b.ID,
		Threads:   threads,
		Arcs:      arcs,
		Instances: exemplars,
		Count:     count,
		Msg: fmt.Sprintf(
			"instance-level dependency cycle: %d instance(s) of thread(s) %s can never fire (e.g. %s); the template graph is acyclic but the context mappings loop",
			count, joinStrings(names), exemplars[0]),
	})
}

// checkDead simulates dataflow firing (counts start at the declared Ready
// Counts, instances fire at zero, firing delivers the actual decrements)
// and reports instances that never fire and are not part of a cycle —
// i.e. transitive starvation: the Block cannot drain.
func (g *blockGraph) checkDead(r *Report) {
	cnt := append(g.count[:0], g.declared...)
	fired := zeroed(g.fired, int(g.n))
	queue := slices.Grow(g.queue[:0], int(g.n))
	for i := int32(0); i < g.n; i++ {
		if cnt[i] == 0 {
			queue = append(queue, i)
		}
	}
	for h := 0; h < len(queue); h++ {
		i := queue[h]
		fired[i] = true
		for _, e := range g.out(i) {
			cnt[e.to]--
			if cnt[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	g.count, g.fired, g.queue = cnt, fired, queue
	for ti, t := range g.tmpls {
		var count int
		var exCtx core.Context
		var exDecl, exDeliv int64
		for ctx := core.Context(0); ctx < t.Instances; ctx++ {
			i := g.inst(ti, ctx)
			if fired[i] || (g.hasCycle && g.cyclic[i]) {
				continue // cyclic instances are reported by checkCycles
			}
			if count == 0 {
				exCtx, exDecl, exDeliv = ctx, g.declared[i], g.delivered[i]
			}
			count++
		}
		if count == 0 {
			continue
		}
		ex := core.Instance{Thread: t.ID, Ctx: exCtx}
		detail := fmt.Sprintf("its Ready Count %d exceeds the %d decrement(s) producers deliver", exDecl, exDeliv)
		if exDecl == exDeliv {
			detail = fmt.Sprintf("all %d of its producer decrement(s) come from instances that themselves never fire", exDecl)
		}
		r.Findings = append(r.Findings, Finding{
			Kind:      KindDeadInstance,
			Block:     g.b.ID,
			Threads:   []core.ThreadID{t.ID},
			Arcs:      g.incomingArcKeys(t.ID),
			Instances: []core.Instance{ex},
			Count:     count,
			Msg: fmt.Sprintf(
				"thread %s: %d of %d context(s) can never fire: e.g. %s — %s; the Block cannot drain",
				g.p.TemplateName(t.ID), count, t.Instances, ex, detail),
		})
	}
}

func joinStrings(s []string) string {
	switch len(s) {
	case 0:
		return ""
	case 1:
		return s[0]
	}
	out := s[0]
	for _, x := range s[1:] {
		out += ", " + x
	}
	return out
}
