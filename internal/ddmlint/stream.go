package ddmlint

import (
	"fmt"
	"sort"
	"strings"

	"tflux/internal/core"
	"tflux/internal/stream"
)

// This file is the streaming half of the verifier: LintStream models a
// stream.Pipeline across window generations instead of as one closed
// batch program. The per-window Synchronization Graph still gets the
// full batch treatment (ready counts, cycles, dead instances, races on
// the declared scratch model), and three streaming-only passes layer on
// top of the same instance graph:
//
//   - scratch-lifetime: reads of slot-indexed scratch that no
//     same-window write happens-before observe a recycled slot's stale
//     data (KindStaleScratch);
//   - pad-soundness: the same dominance question re-asked for the
//     worst-case padded partial final window, where the entry bodies of
//     every padded local are skipped (KindPadLeak);
//   - shed-safety: cross-window accumulators under the Shed policy
//     (KindShedUnsafe).
//
// A window is the per-window Block loaded again, so the batch checks
// are also what keeps its slot from being pinned: a clean report has no
// instance that receives more decrements than its Ready Count and none
// that never fires, which is every window's retirement condition.
//
// Scratch declarations are analyzed by converting them into MemRegions
// on element-unit pseudo-buffers named "scratch:NAME", so the existing
// bounds/undeclared/race machinery applies unchanged; region "bytes" in
// those messages are scratch elements.

// ScratchBuffer returns the pseudo-buffer name under which findings
// report a declared scratch array.
func ScratchBuffer(array string) string { return "scratch:" + array }

// LintStream verifies a streaming pipeline across window generations.
// Like Lint, it returns an error (and no Report) only when the pipeline
// fails structural validation (Pipeline.Block); findings are returned
// on the Report, with the streaming kinds documented on Kind. A clean
// report means, beyond the batch guarantees on the per-window graph:
// no scratch read can observe a recycled slot's stale data (full or
// padded windows), and accumulators are declared shed-tolerant if the
// policy sheds. Neither the slot count nor the worker count enters the
// verdict: RunStream's work queue grows with the instances in flight.
func LintStream(p *stream.Pipeline, policy stream.Policy) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("ddmlint: nil pipeline")
	}
	block, err := p.Block()
	if err != nil {
		return nil, fmt.Errorf("ddmlint: pipeline fails validation: %w", err)
	}
	opts := Options{}.withDefaults()

	decls := make(map[string]stream.ScratchDecl, len(p.Scratch))
	for _, d := range p.Scratch {
		decls[d.Name] = d
	}

	// The analysis program: a copy of the per-window block with each
	// stage's scratch model attached as an Access model, plus one
	// element-unit pseudo-buffer per declared scratch array. The copy
	// keeps the batch-compat path (Pipeline.Program through plain Lint)
	// free of pseudo-buffers it has no declarations for.
	ablock := &core.Block{ID: block.ID}
	for i, t := range block.Templates {
		t2 := *t
		if fn := p.Stages[i].Scratch; fn != nil {
			t2.Access = scratchAccess(fn)
		}
		ablock.Templates = append(ablock.Templates, &t2)
	}
	prog := &core.Program{Name: p.Name, Blocks: []*core.Block{ablock}}
	for _, d := range p.Scratch {
		prog.AddBuffer(ScratchBuffer(d.Name), int64(d.Len))
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("ddmlint: pipeline fails validation: %w", err)
	}

	r := &Report{Program: p.Name}
	bufs := bufferIndex(prog)

	checkShedSafety(r, p, ablock, policy)

	g := takeGraph()
	defer g.release()
	if !g.expand(r, prog, ablock, opts) {
		r.Notes = append(r.Notes,
			"streaming scratch-lifetime analyses skipped (per-window graph not expanded)")
		return r, nil
	}
	g.checkBadTargets(r)
	g.checkReadyCounts(r)
	g.checkCycles(r)
	g.checkDead(r)
	g.checkBounds(r, bufs)
	if g.hasCycle {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"block %d: race and scratch-lifetime analyses skipped (instance graph is cyclic; no happens-before order exists)", ablock.ID))
		return r, nil
	}
	if len(g.accs) == 0 {
		return r, nil
	}
	ordered := accessorOrder(r, g, "race and scratch-lifetime analyses", opts)
	if ordered == nil {
		return r, nil
	}
	if len(g.accs) >= 2 {
		reportRaces(r, g, bufs, ordered)
	}
	checkScratchLifetime(r, g, p, decls, ordered)
	return r, nil
}

// scratchAccess adapts a stage's ScratchFn into the core Access model
// over "scratch:NAME" pseudo-buffers, in element units.
func scratchAccess(fn stream.ScratchFn) core.AccessFn {
	return func(c core.Context) []core.MemRegion {
		sas := fn(c)
		if len(sas) == 0 {
			return nil
		}
		regs := make([]core.MemRegion, len(sas))
		for i, a := range sas {
			regs[i] = core.MemRegion{
				Buffer: ScratchBuffer(a.Array),
				Offset: int64(a.Lo),
				Size:   int64(a.Hi) - int64(a.Lo),
				Write:  a.Write,
			}
		}
		return regs
	}
}

// span is a half-open element interval [lo, hi) of one scratch array.
type span struct{ lo, hi int64 }

// mergeSpans sorts and coalesces overlapping/adjacent spans in place.
func mergeSpans(s []span) []span {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:1]
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.lo <= last.hi {
			if x.hi > last.hi {
				last.hi = x.hi
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

// subtractSpan returns the parts of base not covered by cover, which
// must be merged (sorted, disjoint).
func subtractSpan(base span, cover []span) []span {
	var out []span
	lo := base.lo
	for _, c := range cover {
		if c.hi <= lo {
			continue
		}
		if c.lo >= base.hi {
			break
		}
		if c.lo > lo {
			out = append(out, span{lo, c.lo})
		}
		if c.hi > lo {
			lo = c.hi
		}
		if lo >= base.hi {
			return out
		}
	}
	if lo < base.hi {
		out = append(out, span{lo, base.hi})
	}
	return out
}

// subtractSpans returns the parts of a not covered by b (both merged).
func subtractSpans(a, b []span) []span {
	var out []span
	for _, s := range a {
		out = append(out, subtractSpan(s, b)...)
	}
	return out
}

// intersectSpans returns the total element count of the intersection of
// a and b (both merged) and the first intersecting element.
func intersectSpans(a, b []span) (n int64, first int64) {
	first = -1
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if lo < hi {
			if first < 0 {
				first = lo
			}
			n += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return n, first
}

// scratchRegion resolves one region of the access table to its scratch
// array. checkBounds admitted to that table only regions on declared
// pseudo-buffers, clipped to the array bounds, which keeps this analysis
// total.
func scratchRegion(reg core.MemRegion, decls map[string]stream.ScratchDecl) (name string, s span, zero bool) {
	name = strings.TrimPrefix(reg.Buffer, "scratch:")
	return name, span{reg.Offset, reg.Offset + reg.Size}, decls[name].ZeroOnExport
}

// checkScratchLifetime runs the scratch-lifetime and pad-soundness
// analyses together: for every declared scratch read it computes which
// elements a same-window write happens-before (the covered set), once
// for a full window and once for the worst-case padded final window
// (one admitted event: entry bodies at locals ≥ 1 skipped, so their
// declared accesses never happen).
//
// A read element is stale (KindStaleScratch) when it is uncovered, some
// instance of the window graph ever writes it (so a recycled slot can
// actually carry a previous occupant's value there), and the array is
// not declared ZeroOnExport. A read element is a pad leak
// (KindPadLeak) when it is covered in a full window but uncovered in
// the padded one — the previous (full) occupant's data flows into the
// partial window's export.
//
// ZeroOnExport arrays are exempt from both: each window starts from
// zeroed storage, so an uncovered read deterministically observes
// zero (an unordered same-window writer is still reported as a race).
func checkScratchLifetime(r *Report, g *blockGraph, p *stream.Pipeline, decls map[string]stream.ScratchDecl, ordered func(a, b int) bool) {
	accs := g.accs
	// ever[name] = merged spans any instance of the window graph writes:
	// the elements a recycled slot can carry stale data in.
	ever := make(map[string][]span)
	for ai := range accs {
		for _, reg := range accs[ai].regs {
			if !reg.Write {
				continue
			}
			name, s, _ := scratchRegion(reg, decls)
			ever[name] = append(ever[name], s)
		}
	}
	for name := range ever {
		ever[name] = mergeSpans(ever[name])
	}
	if len(ever) == 0 {
		return // nothing is ever written; every read observes zeroes
	}

	entry := g.tmpls[0].ID
	padded := p.Window > 1 // a window opens at its first event, so local 0 is never a pad
	isPad := func(a *accessor) bool { return a.id.Thread == entry && a.id.Ctx >= 1 }

	type aggKey struct {
		kind   Kind
		reader core.ThreadID
		buf    string
	}
	type agg struct {
		count  int64
		ex     core.Instance // exemplar reader
		exElem int64         // exemplar element
		// exemplar writer of exElem and its relation to the reader:
		// "self" (RMW), "later" (ordered after), "unordered".
		exWriter   core.ThreadID
		exRelation string
	}
	found := make(map[aggKey]*agg)
	var order []aggKey

	record := func(kind Kind, reader int, buf string, cnt, first int64) {
		key := aggKey{kind: kind, reader: accs[reader].id.Thread, buf: buf}
		a := found[key]
		if a == nil {
			a = &agg{ex: accs[reader].id, exElem: first, exRelation: "none"}
			// Identify an exemplar same-window writer of the element.
			for wi := range accs {
				var wOK bool
				for _, wr := range accs[wi].regs {
					if !wr.Write {
						continue
					}
					if wn, ws, _ := scratchRegion(wr, decls); wn == buf && ws.lo <= first && first < ws.hi {
						wOK = true
						break
					}
				}
				if !wOK {
					continue
				}
				a.exWriter = accs[wi].id.Thread
				switch {
				case wi == reader:
					a.exRelation = "self"
				case ordered(reader, wi):
					a.exRelation = "later"
				default:
					a.exRelation = "unordered"
				}
				if a.exRelation == "later" || a.exRelation == "unordered" {
					break // prefer a cross-instance writer over self-RMW
				}
			}
			found[key] = a
			order = append(order, key)
		}
		a.count += cnt
	}

	for bi := range accs {
		reader := &accs[bi]
		for _, reg := range reader.regs {
			if reg.Write {
				continue
			}
			name, base, zero := scratchRegion(reg, decls)
			if zero {
				continue
			}
			everW := ever[name]
			if len(everW) == 0 {
				continue
			}
			// Covering writers: instances whose declared write on this
			// array happens-before the read. A same-instance write does
			// not cover (reads are modeled before writes), and an
			// unordered write does not cover (the read can run first).
			var coverFull, coverPad []span
			for ai := range accs {
				if ai == bi || !ordered(ai, bi) {
					continue
				}
				pad := isPad(&accs[ai])
				for _, wr := range accs[ai].regs {
					if !wr.Write {
						continue
					}
					if wn, ws, _ := scratchRegion(wr, decls); wn == name {
						coverFull = append(coverFull, ws)
						if !pad {
							coverPad = append(coverPad, ws)
						}
					}
				}
			}
			uncFull := subtractSpan(base, mergeSpans(coverFull))
			if cnt, first := intersectSpans(uncFull, everW); cnt > 0 {
				record(KindStaleScratch, bi, name, cnt, first)
			}
			if !padded || isPad(reader) {
				continue // a pad's own body never runs, so it never reads
			}
			uncPad := subtractSpan(base, mergeSpans(coverPad))
			newly := subtractSpans(uncPad, mergeSpans(uncFull))
			if cnt, first := intersectSpans(newly, everW); cnt > 0 {
				record(KindPadLeak, bi, name, cnt, first)
			}
		}
	}

	for _, key := range order {
		a := found[key]
		var writer string
		switch a.exRelation {
		case "self":
			writer = "only the reading instance itself writes it, after its read (read-modify-write)"
		case "later":
			writer = fmt.Sprintf("it is written only later in the window, by stage %s", g.p.TemplateName(a.exWriter))
		case "unordered":
			writer = fmt.Sprintf("stage %s writes it in the same window, but no arc path orders that write before the read", g.p.TemplateName(a.exWriter))
		default:
			writer = "no same-window instance writes it"
		}
		var msg string
		threads := []core.ThreadID{key.reader}
		if a.exRelation != "none" && a.exWriter != key.reader {
			threads = append(threads, a.exWriter)
			sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		}
		if key.kind == KindStaleScratch {
			msg = fmt.Sprintf(
				"stage %s reads %d scratch element(s) of %q that no same-window write happens-before: e.g. %s reads element %d — %s; on a recycled slot the read observes the previous occupant's data",
				g.p.TemplateName(key.reader), a.count, key.buf, a.ex, a.exElem, writer)
		} else {
			msg = fmt.Sprintf(
				"stage %s reads %d scratch element(s) of %q that only skipped pad bodies write in a partial final window: e.g. %s reads element %d, written by the entry stage whose body pads skip; the previous occupant's data flows into the padded window's export (declare the array ZeroOnExport or write it downstream of the entry)",
				g.p.TemplateName(key.reader), a.count, key.buf, a.ex, a.exElem)
		}
		r.Findings = append(r.Findings, Finding{
			Kind:      key.kind,
			Block:     g.b.ID,
			Threads:   threads,
			Arcs:      g.incomingArcKeys(key.reader),
			Instances: []core.Instance{a.ex},
			Buffer:    ScratchBuffer(key.buf),
			Count:     int(a.count),
			Msg:       msg,
		})
	}
}

// checkShedSafety flags cross-window accumulators under the Shed
// policy: shedding drops whole windows at admission, so any state
// folded across windows silently excludes them unless the pipeline
// declares that acceptable.
func checkShedSafety(r *Report, p *stream.Pipeline, b *core.Block, policy stream.Policy) {
	if policy != stream.Shed {
		return
	}
	for i, s := range p.Stages {
		if !s.Accumulates || s.ShedTolerant {
			continue
		}
		id := b.Templates[i].ID
		r.Findings = append(r.Findings, Finding{
			Kind:    KindShedUnsafe,
			Block:   b.ID,
			Threads: []core.ThreadID{id},
			Count:   1,
			Msg: fmt.Sprintf(
				"stage %q accumulates cross-window state and the Shed policy drops whole windows at admission: the accumulated result silently excludes shed windows; declare the stage ShedTolerant if best-effort accumulation is intended, or run under the Block policy",
				s.Name),
		})
	}
	if p.ExportAccumulates && !p.ExportShedTolerant {
		r.Findings = append(r.Findings, Finding{
			Kind:  KindShedUnsafe,
			Block: b.ID,
			Count: 1,
			Msg:   "the pipeline's Export accumulates cross-window state and the Shed policy drops whole windows at admission: shed windows never export, so the accumulated result is silently partial; declare ExportShedTolerant if best-effort accumulation is intended, or run under the Block policy",
		})
	}
}
