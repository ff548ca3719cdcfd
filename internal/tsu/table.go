package tsu

import (
	"fmt"

	"tflux/internal/core"
)

// flatArc is one pre-resolved consumer dependency: the arc's mapping plus
// the consumer-side fields arc expansion needs, flattened when the thread
// table is built so expansion never chases the consumer's template pointer.
type flatArc struct {
	to    core.ThreadID
	m     core.Mapping
	cInst core.Context // consumer template's instance count
}

// tmplInfo caches the immutable per-template tables the kernels consult
// concurrently (the "Local TSU" state). It lives in a dense slice indexed
// directly by ThreadID, so every hot-path lookup is one array access. The
// State, the frozen Tables and the States built over them all read the same
// table, built once by buildThreadTable.
type tmplInfo struct {
	t        *core.Template
	body     core.Body
	arcs     []flatArc
	inst     core.Context // t.Instances, dense copy
	affinity int          // t.Affinity, dense copy
	dense    int          // index within its block
	block    int
}

// threadIDSpace returns the largest ThreadID among the blocks' templates.
// The thread table is indexed directly by ThreadID, so a pathologically
// sparse ID space would allocate an entry per unused ID. Refuse it with a
// clear message instead of eating gigabytes; the bound is generous enough
// for any hand-numbered program.
func threadIDSpace(blocks []*core.Block) (core.ThreadID, error) {
	var maxID core.ThreadID
	var nTmpl int64
	for _, b := range blocks {
		nTmpl += int64(len(b.Templates))
		for _, t := range b.Templates {
			if t.ID > maxID {
				maxID = t.ID
			}
		}
	}
	if int64(maxID) > 64*nTmpl+1024 {
		return 0, fmt.Errorf("tsu: thread ID space is too sparse (max ID %d for %d templates); renumber thread IDs densely", maxID, nTmpl)
	}
	return maxID, nil
}

// buildThreadTable builds the dense thread table for a set of Blocks: one
// tmplInfo per template, indexed by ThreadID (t == nil for unassigned IDs),
// with the arc tables flattened once every template is registered, so each
// arc's consumer instance count is resolved here and arc expansion never
// touches the consumer template. The caller has validated that arcs stay
// inside their Block (core.Program.Validate).
func buildThreadTable(blocks []*core.Block) ([]tmplInfo, error) {
	maxID, err := threadIDSpace(blocks)
	if err != nil {
		return nil, err
	}
	infos := make([]tmplInfo, maxID+1)
	for bi, b := range blocks {
		for di, t := range b.Templates {
			infos[t.ID] = tmplInfo{
				t:        t,
				body:     t.Body,
				inst:     t.Instances,
				affinity: t.Affinity,
				dense:    di,
				block:    bi,
			}
		}
	}
	for _, b := range blocks {
		for _, t := range b.Templates {
			if len(t.Arcs) == 0 {
				continue
			}
			arcs := make([]flatArc, len(t.Arcs))
			for ai, a := range t.Arcs {
				arcs[ai] = flatArc{to: a.To, m: a.Map, cInst: infos[a.To].inst}
			}
			infos[t.ID].arcs = arcs
		}
	}
	return infos, nil
}

// appendConsumers is the arc-expansion half of the Post-Processing Phase:
// it appends the consumer instances enabled by the completion of context
// pctx of info's template. It reads only immutable tables. ctx is the
// caller's context scratch, grown in place: it passes through the Mapping
// interface, so a buffer declared here would be moved to the heap on every
// call.
func (info *tmplInfo) appendConsumers(dst []core.Instance, ctx *[]core.Context, pctx core.Context) []core.Instance {
	for ai := range info.arcs {
		a := &info.arcs[ai]
		*ctx = a.m.AppendTargets((*ctx)[:0], pctx, info.inst, a.cInst)
		for _, cc := range *ctx {
			dst = append(dst, core.Instance{Thread: a.to, Ctx: cc})
		}
	}
	return dst
}
