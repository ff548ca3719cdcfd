package ddmlint

import (
	"cmp"
	"fmt"
	"slices"

	"tflux/internal/core"
)

// accessor is one instance with a non-empty declared access set.
type accessor struct {
	inst int32
	id   core.Instance
	// regs are the instance's sized regions on declared buffers, each
	// inside its buffer's bounds (so Offset+Size cannot overflow). It is
	// the slice the AccessFn returned unless a region had to be dropped
	// or clipped, and is never written to.
	regs []core.MemRegion
}

// bufferIndex maps each declared buffer name to its index in p.Buffers.
func bufferIndex(p *core.Program) map[string]int32 {
	bufs := make(map[string]int32, len(p.Buffers))
	for i, b := range p.Buffers {
		bufs[b.Name] = int32(i)
	}
	return bufs
}

// clipRegion returns the part of reg inside a buffer of the given size;
// the result has Size <= 0 when there is none. No Offset and Size can
// make it overflow.
func clipRegion(reg core.MemRegion, size int64) core.MemRegion {
	if reg.Size < 0 {
		reg.Size = 0
		return reg
	}
	if reg.Offset < 0 {
		reg.Size += reg.Offset
		reg.Offset = 0
	}
	if reg.Size > size-reg.Offset {
		reg.Size = size - reg.Offset
	}
	return reg
}

// checkBounds reads the Block's rows of the program's access table,
// verifying that every declared MemRegion names a declared buffer and
// stays inside its bounds (aggregated per template and buffer), and
// leaves what the race and scratch-lifetime passes read in g.accs: every
// instance with a non-empty access set, in (template, context) order.
// What this pass rejects reaches g.accs clipped to the buffer (out of
// bounds) or not at all (undeclared).
func (g *blockGraph) checkBounds(r *Report, bufs map[string]int32) {
	type agg struct {
		kind  Kind
		count int
		ctx   core.Context   // exemplar
		reg   core.MemRegion // exemplar
	}
	tab := g.p.AccessTable()
	for ti, t := range g.tmpls {
		if t.Access == nil {
			continue
		}
		byBuf := make(map[string]*agg)
		var order []string
		for ctx := core.Context(0); ctx < t.Instances; ctx++ {
			declared := tab.Row(core.Instance{Thread: t.ID, Ctx: ctx})
			regs, owned := declared, false
			for i, reg := range declared {
				// keep is what the later passes see of a region this pass
				// flags or ignores: its in-bounds part, if any.
				keep, kind := reg, Kind(-1)
				bi, ok := bufs[reg.Buffer]
				switch {
				case reg.Size == 0:
					// ignored everywhere
				case !ok:
					kind, keep.Size = KindUndeclaredBuffer, 0
				case !core.InBounds(reg.Offset, reg.Size, g.p.Buffers[bi].Size):
					kind, keep = KindBufferBounds, clipRegion(reg, g.p.Buffers[bi].Size)
				default:
					if owned {
						regs = append(regs, reg)
					}
					continue
				}
				if kind >= 0 {
					a := byBuf[reg.Buffer]
					if a == nil {
						a = &agg{kind: kind, ctx: ctx, reg: reg}
						byBuf[reg.Buffer] = a
						order = append(order, reg.Buffer)
					}
					a.count++
				}
				if !owned {
					regs = append(make([]core.MemRegion, 0, len(declared)), declared[:i]...)
					owned = true
				}
				if keep.Size > 0 {
					regs = append(regs, keep)
				}
			}
			if len(regs) > 0 {
				g.accs = append(g.accs, accessor{
					inst: g.inst(ti, ctx),
					id:   core.Instance{Thread: t.ID, Ctx: ctx},
					regs: regs,
				})
			}
		}
		for _, name := range order {
			a := byBuf[name]
			// The end is printed as declared, wrapped if Offset+Size
			// overflows: the message names what the program said.
			var msg string
			if a.kind == KindUndeclaredBuffer {
				msg = fmt.Sprintf(
					"thread %s declares %d region(s) on buffer %q, which the program never declares (e.g. context %d, bytes [%d,%d))",
					g.p.TemplateName(t.ID), a.count, name, a.ctx, a.reg.Offset, a.reg.Offset+a.reg.Size)
			} else {
				msg = fmt.Sprintf(
					"thread %s declares %d region(s) exceeding buffer %q (size %d): e.g. context %d touches bytes [%d,%d)",
					g.p.TemplateName(t.ID), a.count, name, g.p.Buffers[bufs[name]].Size, a.ctx, a.reg.Offset, a.reg.Offset+a.reg.Size)
			}
			r.Findings = append(r.Findings, Finding{
				Kind:      a.kind,
				Block:     g.b.ID,
				Threads:   []core.ThreadID{t.ID},
				Instances: []core.Instance{{Thread: t.ID, Ctx: a.ctx}},
				Buffer:    name,
				Count:     a.count,
				Msg:       msg,
			})
		}
	}
}

// accessorOrder computes happens-before between accessors: reachability
// over the instance graph, since the TSU enables an instance only after
// all its producers complete and DDM bodies may not block on anything
// else. It returns nil (with a Note on r naming what) when the accessor
// count or bitset memory exceeds opts' caps. Requires an acyclic
// instance graph (g.topo valid).
func accessorOrder(r *Report, g *blockGraph, what string, opts Options) func(a, b int) bool {
	accs := g.accs
	if len(accs) > opts.MaxRaceInstances {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"block %d: %s skipped (%d accessor instances exceeds MaxRaceInstances %d)",
			g.b.ID, what, len(accs), opts.MaxRaceInstances))
		return nil
	}
	words := (len(accs) + 63) / 64
	if bytes := int64(g.n) * int64(words) * 8; bytes > opts.MaxRaceBytes {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"block %d: %s skipped (reachability bitsets need %d bytes, MaxRaceBytes is %d)",
			g.b.ID, what, bytes, opts.MaxRaceBytes))
		return nil
	}

	// accOf[i] = accessor bit of instance i, or -1.
	accOf := make([]int32, g.n)
	for i := range accOf {
		accOf[i] = -1
	}
	for ai := range accs {
		accOf[accs[ai].inst] = int32(ai)
	}

	// reach[i] = set of accessor instances reachable from i via ≥1 edge,
	// computed in reverse topological order.
	reach := make([]uint64, int(g.n)*words)
	row := func(i int32) []uint64 { return reach[int(i)*words : (int(i)+1)*words] }
	for k := len(g.topo) - 1; k >= 0; k-- {
		i := g.topo[k]
		ri := row(i)
		for _, e := range g.out(i) {
			if a := accOf[e.to]; a >= 0 {
				ri[a/64] |= 1 << (a % 64)
			}
			for w, v := range row(e.to) {
				ri[w] |= v
			}
		}
	}
	return func(a, b int) bool { // accessor a happens-before accessor b?
		return row(accs[a].inst)[b/64]&(1<<(uint(b)%64)) != 0
	}
}

// checkRaces reports unordered instance pairs with conflicting declared
// accesses (see accessorOrder for the happens-before model).
func checkRaces(r *Report, g *blockGraph, bufs map[string]int32, opts Options) {
	if len(g.accs) < 2 {
		return
	}
	ordered := accessorOrder(r, g, "race analysis", opts)
	if ordered == nil {
		return
	}
	reportRaces(r, g, bufs, ordered)
}

// reportRaces finds the conflicting pairs of declared regions — same
// buffer, overlapping bytes, different instances, at least one writing,
// no happens-before either way — with one interval sweep per buffer: the
// regions sorted by offset, each compared only with the later ones that
// start before it ends. That is O(R log R + K) in regions R and
// overlapping pairs K, and only those K consult the happens-before order.
//
// Conflicts aggregate per (kind, template pair, buffer), the pair taken
// in accessor order. A finding's exemplar is its lexicographically first
// conflict (accessor a, accessor b, region of a, region of b) with
// a < b, and findings appear in the order of those exemplars — what
// nested loops over accessor pairs and their regions would meet first.
func reportRaces(r *Report, g *blockGraph, bufs map[string]int32, ordered func(a, b int) bool) {
	accs := g.accs
	type item struct {
		off, end int64
		buf      int32
		acc, reg int32
		write    bool
	}
	n := 0
	for ai := range accs {
		n += len(accs[ai].regs)
	}
	items := make([]item, 0, n)
	for ai := range accs {
		for ri, reg := range accs[ai].regs {
			items = append(items, item{
				off: reg.Offset, end: reg.Offset + reg.Size, buf: bufs[reg.Buffer],
				acc: int32(ai), reg: int32(ri), write: reg.Write,
			})
		}
	}
	slices.SortFunc(items, func(x, y item) int {
		if c := cmp.Compare(x.buf, y.buf); c != 0 {
			return c
		}
		return cmp.Compare(x.off, y.off)
	})

	type pairKey struct {
		kind   Kind
		ta, tb core.ThreadID
		buf    int32
	}
	type pairAgg struct {
		kind  Kind
		count int
		first [4]int32 // exemplar conflict: accessor a, accessor b, region of a, region of b
	}
	found := make(map[pairKey]*pairAgg)
	var aggs []*pairAgg
	for i := range items {
		x := &items[i]
		for j := i + 1; j < len(items) && items[j].buf == x.buf && items[j].off < x.end; j++ {
			a, b := x, &items[j]
			if a.acc == b.acc || (!a.write && !b.write) {
				continue
			}
			if a.acc > b.acc {
				a, b = b, a
			}
			if ordered(int(a.acc), int(b.acc)) || ordered(int(b.acc), int(a.acc)) {
				continue
			}
			kind := KindRace
			if a.write && b.write {
				kind = KindWriteConflict
			}
			key := pairKey{kind: kind, ta: accs[a.acc].id.Thread, tb: accs[b.acc].id.Thread, buf: a.buf}
			conflict := [4]int32{a.acc, b.acc, a.reg, b.reg}
			pa := found[key]
			if pa == nil {
				pa = &pairAgg{kind: kind, first: conflict}
				found[key] = pa
				aggs = append(aggs, pa)
			} else if slices.Compare(conflict[:], pa.first[:]) < 0 {
				pa.first = conflict
			}
			pa.count++
		}
	}
	slices.SortFunc(aggs, func(p, q *pairAgg) int { return slices.Compare(p.first[:], q.first[:]) })

	for _, pa := range aggs {
		a, b := &accs[pa.first[0]], &accs[pa.first[1]]
		ra, rb := a.regs[pa.first[2]], b.regs[pa.first[3]]
		mode := "read/write"
		consequence := "no arc path orders them"
		if pa.kind == KindWriteConflict {
			mode = "write/write"
			consequence = "no arc path orders them; the final contents depend on scheduling (nondeterministic result)"
		}
		ta, tb := a.id.Thread, b.id.Thread
		threads := []core.ThreadID{ta}
		if tb != ta {
			threads = []core.ThreadID{min(ta, tb), max(ta, tb)}
		}
		r.Findings = append(r.Findings, Finding{
			Kind:      pa.kind,
			Block:     g.b.ID,
			Threads:   threads,
			Instances: []core.Instance{a.id, b.id},
			Buffer:    ra.Buffer,
			Count:     pa.count,
			Msg: fmt.Sprintf(
				"%d unordered %s conflict(s) on buffer %q between threads %s and %s: e.g. %s touches bytes [%d,%d) and %s touches bytes [%d,%d); %s",
				pa.count, mode, ra.Buffer,
				g.p.TemplateName(ta), g.p.TemplateName(tb),
				a.id, ra.Offset, ra.Offset+ra.Size,
				b.id, rb.Offset, rb.Offset+rb.Size,
				consequence),
		})
	}
}
