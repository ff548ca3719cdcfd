package ddmlint

import (
	"fmt"
	"strings"
	"testing"

	"tflux/internal/core"
	"tflux/internal/stream"
)

// FuzzStreamLintOracle cross-checks the scratch-lifetime analysis
// (interval algebra over the accessor happens-before order) against a
// brute-force multi-window oracle (per-element stamp simulation over
// per-instance ancestor sets). The two must agree on the boolean
// verdict "some read can observe a recycled slot's stale data":
//
//	lint{stale-scratch ∪ pad-leak}  ⇔  oracle observes a stale read
//
// The equivalence rests on the adversarial-schedule argument from
// DESIGN.md §13: an instance's ancestor set is closed under producers,
// so "fire exactly the ancestors, then the reader" is always a valid
// schedule — one in which precisely the happens-before writers have
// run. The oracle realizes that schedule element by element: a read is
// stale iff no ancestor writes the element, some same-window instance
// ever writes it (priming window), and the array is not ZeroOnExport.
// The union with pad-leak is exact because the pad window's uncovered
// set splits into "already uncovered in a full window" (stale-scratch)
// and "newly uncovered when pads skip the entry body" (pad-leak).
func FuzzStreamLintOracle(f *testing.F) {
	// Seeds: known stale trigger (write-after-read), covered-clean,
	// pad-leak shapes through each mapping family, ZeroOnExport twins.
	f.Add([]byte{3, 0, 1, 4, 0, 0, 1, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{3, 1, 1, 4, 0, 0, 1, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{3, 0, 2, 5, 1, 1, 0, 0, 1, 2, 0, 3, 0})
	f.Add([]byte{2, 0, 0, 3, 1, 0, 1, 1, 4, 1, 2, 0, 2, 1, 0})
	f.Add([]byte{1, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 2, 0, 1, 0, 1, 3, 2, 1, 1, 0, 2, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		fz := decodeFuzzPipeline(data)
		p := fz.pipeline()
		rep, err := LintStream(p, stream.Block)
		if err != nil {
			t.Fatalf("decoder produced an invalid pipeline (%v): %s", err, fz)
		}
		if len(rep.Notes) > 0 {
			t.Fatalf("analysis skipped (%v) on a tiny graph: %s", rep.Notes, fz)
		}
		lintStale := hasKind(rep, KindStaleScratch) != nil || hasKind(rep, KindPadLeak) != nil
		oracleStale := fz.oracleStale()
		if lintStale != oracleStale {
			t.Fatalf("lint stale=%v (findings %v) but oracle stale=%v on %s",
				lintStale, kinds(rep), oracleStale, fz)
		}
	})
}

// fuzzAccess is one declared access of a stage. perLocal selects a
// moving single-element access ((lo+local) mod len) instead of the
// fixed range [lo,hi), so the fuzzer exercises both span shapes.
type fuzzAccess struct {
	lo, hi   core.Context
	write    bool
	perLocal bool
}

type fuzzStage struct {
	inst core.Context
	m    core.Mapping // nil on the last stage
	accs []fuzzAccess
}

type fuzzPipeline struct {
	w      core.Context
	sLen   core.Context
	zero   bool
	stages []fuzzStage
}

// decodeFuzzPipeline derives a structurally valid pipeline from fuzz
// bytes: consumer instance counts are computed FROM the chosen mapping
// so every non-entry instance is fed (Pipeline.Block's invariant) and
// declared in-degrees match delivered decrements; accesses are clipped
// in-bounds. Exhausted input reads as zero.
func decodeFuzzPipeline(data []byte) *fuzzPipeline {
	i := 0
	next := func() byte {
		if i < len(data) {
			b := data[i]
			i++
			return b
		}
		return 0
	}
	fz := &fuzzPipeline{
		w:    core.Context(1 + next()%4),
		zero: next()%2 == 1,
		sLen: core.Context(1 + next()%6),
	}
	nStages := int(2 + next()%3)
	inst := fz.w // entry: one instance per event
	for s := 0; s < nStages; s++ {
		st := fuzzStage{inst: inst}
		if s < nStages-1 {
			pInst := inst
			switch next() % 5 {
			case 0:
				st.m, inst = core.OneToOne{}, pInst
			case 1:
				st.m, inst = core.AllToOne{}, 1
			case 2:
				st.m, inst = core.OneToAll{}, core.Context(1+next()%4)
			case 3:
				fan := core.Context(1 + next()%2)
				st.m, inst = core.Gather{Fan: fan}, (pInst+fan-1)/fan
			default:
				fan := core.Context(1 + next()%2)
				st.m, inst = core.Scatter{Fan: fan}, min(pInst*fan, 8)
			}
		}
		for n := next() % 3; n > 0; n-- {
			lo := core.Context(next()) % fz.sLen
			a := fuzzAccess{
				lo:       lo,
				hi:       lo + 1 + core.Context(next())%(fz.sLen-lo),
				write:    next()%2 == 1,
				perLocal: next()%2 == 1,
			}
			st.accs = append(st.accs, a)
		}
		fz.stages = append(fz.stages, st)
	}
	return fz
}

// elems returns the concrete element span of one access for one local.
func (fz *fuzzPipeline) elems(a fuzzAccess, local core.Context) (lo, hi core.Context) {
	if a.perLocal {
		e := (a.lo + local) % fz.sLen
		return e, e + 1
	}
	return a.lo, a.hi
}

func (fz *fuzzPipeline) pipeline() *stream.Pipeline {
	p := &stream.Pipeline{
		Name:    "fuzz",
		Window:  fz.w,
		Scratch: []stream.ScratchDecl{{Name: "s", Len: fz.sLen, ZeroOnExport: fz.zero}},
	}
	for _, st := range fz.stages {
		accs := st.accs
		var fn stream.ScratchFn
		if len(accs) > 0 {
			fn = func(local core.Context) []stream.ScratchAccess {
				out := make([]stream.ScratchAccess, len(accs))
				for i, a := range accs {
					lo, hi := fz.elems(a, local)
					out[i] = stream.ScratchAccess{Array: "s", Lo: lo, Hi: hi, Write: a.write}
				}
				return out
			}
		}
		p.Stages = append(p.Stages, stream.Stage{
			Name:      fmt.Sprintf("s%d", len(p.Stages)),
			Instances: st.inst,
			Map:       st.m,
			Scratch:   fn,
		})
	}
	return p
}

// oracleStale is the brute-force verdict, computed with none of the
// analyzer's machinery: explicit instance graph, per-instance ancestor
// sets, per-element write stamps, one full window and one worst-case
// padded window (a single admitted event).
func (fz *fuzzPipeline) oracleStale() bool {
	if fz.zero {
		// Export zeroes the slot, so window n+1 starts from zeroed
		// storage: nothing stale can survive a recycling.
		return false
	}
	// Flatten instances and build forward adjacency via the mappings'
	// own AppendTargets (the runtime's delivery path).
	type ref struct{ stage, local int }
	var ids []ref
	base := make([]int, len(fz.stages))
	for s, st := range fz.stages {
		base[s] = len(ids)
		for l := core.Context(0); l < st.inst; l++ {
			ids = append(ids, ref{s, int(l)})
		}
	}
	n := len(ids)
	succ := make([][]int, n)
	for s := 0; s < len(fz.stages)-1; s++ {
		pInst, cInst := fz.stages[s].inst, fz.stages[s+1].inst
		for l := core.Context(0); l < pInst; l++ {
			for _, c := range fz.stages[s].m.AppendTargets(nil, l, pInst, cInst) {
				succ[base[s]+int(l)] = append(succ[base[s]+int(l)], base[s+1]+int(c))
			}
		}
	}
	// ancestors[i] = proper ancestors of i (closed under producers, so
	// firing exactly this set and then i is a valid schedule).
	anc := make([][]bool, n)
	for i := 0; i < n; i++ {
		anc[i] = make([]bool, n)
	}
	// Stage-major order is topological (arcs only go forward).
	for i := 0; i < n; i++ {
		for _, c := range succ[i] {
			anc[c][i] = true
			for j := 0; j < n; j++ {
				if anc[i][j] {
					anc[c][j] = true
				}
			}
		}
	}

	writes := func(i int, e core.Context) bool {
		r := ids[i]
		for _, a := range fz.stages[r.stage].accs {
			if !a.write {
				continue
			}
			if lo, hi := fz.elems(a, core.Context(r.local)); lo <= e && e < hi {
				return true
			}
		}
		return false
	}
	isPad := func(i int) bool { return ids[i].stage == 0 && ids[i].local >= 1 }

	// Priming window: a full window runs every body, so after it the
	// slot carries data exactly where some instance writes.
	ever := make([]bool, fz.sLen)
	for e := core.Context(0); e < fz.sLen; e++ {
		for i := 0; i < n; i++ {
			if writes(i, e) {
				ever[e] = true
				break
			}
		}
	}

	// stale reports whether reader i can observe a stale element in a
	// window where pad bodies (none for the full window, entry locals
	// ≥1 for the padded one) are skipped.
	stale := func(i int, padWindow bool) bool {
		if padWindow && isPad(i) {
			return false // a pad's own body never runs
		}
		r := ids[i]
		for _, a := range fz.stages[r.stage].accs {
			if a.write {
				continue
			}
			lo, hi := fz.elems(a, core.Context(r.local))
			for e := lo; e < hi; e++ {
				if !ever[e] {
					continue // never written: reads the initial zeros
				}
				covered := false
				for j := 0; j < n && !covered; j++ {
					covered = anc[i][j] && writes(j, e) && !(padWindow && isPad(j))
				}
				if !covered {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if stale(i, false) {
			return true
		}
		if fz.w > 1 && stale(i, true) {
			return true
		}
	}
	return false
}

func (fz *fuzzPipeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline{w=%d sLen=%d zero=%v", fz.w, fz.sLen, fz.zero)
	for _, st := range fz.stages {
		fmt.Fprintf(&b, " stage{inst=%d map=%v accs=%+v}", st.inst, st.m, st.accs)
	}
	b.WriteString("}")
	return b.String()
}
