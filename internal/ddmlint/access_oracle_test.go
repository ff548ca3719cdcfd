package ddmlint

import (
	"math/rand"
	"reflect"
	"testing"

	"tflux/internal/core"
	"tflux/internal/workload"
)

// checkAccessTable holds p's access table to the models it was built
// from: every row deep-equal to a fresh live call, every interned import
// id and export span naming the (buffer, offset, size) the model
// declared, in the model's order, and the index sorted, duplicate-free
// and partitioned by buffer the way BufferSpans says.
func checkAccessTable(t *testing.T, label string, p *core.Program) {
	t.Helper()
	tab := p.AccessTable()
	idx := tab.Regions()
	same := func(sp core.RegionSpan, reg core.MemRegion) bool {
		return idx.Buffers[sp.Buf] == reg.Buffer && sp.Off == reg.Offset && sp.Size == reg.Size
	}
	for _, b := range p.Blocks {
		for _, tpl := range b.Templates {
			for ctx := core.Context(0); ctx < tpl.Instances; ctx++ {
				inst := core.Instance{Thread: tpl.ID, Ctx: ctx}
				var live []core.MemRegion
				if tpl.Access != nil {
					live = tpl.Access(ctx)
				}
				if row := tab.Row(inst); !reflect.DeepEqual(row, live) {
					t.Fatalf("%s %v: row %+v, live call %+v", label, inst, row, live)
				}
				ids, exports := idx.Instance(inst)
				for _, reg := range live {
					switch {
					case reg.Size <= 0:
					case reg.Write:
						if len(exports) == 0 || !same(exports[0], reg) {
							t.Fatalf("%s %v: exports %+v do not continue with %+v", label, inst, exports, reg)
						}
						exports = exports[1:]
					default:
						if len(ids) == 0 || !same(idx.Spans[ids[0]], reg) {
							t.Fatalf("%s %v: import ids %v do not continue with %+v", label, inst, ids, reg)
						}
						ids = ids[1:]
					}
				}
				if len(ids)+len(exports) != 0 {
					t.Fatalf("%s %v: %d import ids and %d exports the model does not declare", label, inst, len(ids), len(exports))
				}
			}
		}
	}
	for i := 1; i < len(idx.Spans); i++ {
		a, b := idx.Spans[i-1], idx.Spans[i]
		if a.Buf > b.Buf || (a.Buf == b.Buf && (a.Off > b.Off || (a.Off == b.Off && a.Size >= b.Size))) {
			t.Fatalf("%s: ids %d and %d out of order or equal: %+v, %+v", label, i-1, i, a, b)
		}
	}
	next := int32(0)
	for buf := range idx.Buffers {
		lo, hi, maxSize := idx.BufferSpans(int32(buf))
		if lo != next || hi < lo {
			t.Fatalf("%s: buffer %d spans [%d,%d), want them to start at %d", label, buf, lo, hi, next)
		}
		var want int64
		for _, sp := range idx.Spans[lo:hi] {
			if sp.Buf != int32(buf) {
				t.Fatalf("%s: span %+v listed under buffer %d", label, sp, buf)
			}
			want = max(want, sp.Size)
		}
		if maxSize != want {
			t.Fatalf("%s: buffer %d maxSize %d, want %d", label, buf, maxSize, want)
		}
		next = hi
	}
	if int(next) != len(idx.Spans) {
		t.Fatalf("%s: buffers cover %d of %d spans", label, next, len(idx.Spans))
	}
}

// TestAccessTableMatchesLive: the table is the models, remembered — over
// the suite at every native size and grain, and over the fuzz programs
// (overrunning, zero-size, duplicate and strided regions included).
func TestAccessTableMatchesLive(t *testing.T) {
	for _, spec := range workload.Suite() {
		sizes, _ := spec.Sizes(workload.Native)
		for _, param := range sizes {
			for _, unroll := range []int{1, 8, 64} {
				p, err := spec.Make(param).Build(2, unroll)
				if err != nil {
					t.Fatalf("%s %s unroll %d: %v", spec.Name, spec.SizeLabel(param), unroll, err)
				}
				checkAccessTable(t, spec.Name+" "+spec.SizeLabel(param), p)
			}
		}
	}
	for _, seed := range raceSeeds {
		checkAccessTable(t, "race seed", buildFuzzProgram(seed))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 16+rng.Intn(40))
		rng.Read(data)
		checkAccessTable(t, "fuzz program", buildFuzzProgram(data))
	}

	// A model may name a buffer the program never declares (lint rejects
	// it; a bare CoordinateOpts does not lint): it is interned after the
	// declared ones.
	p := core.NewProgram("undeclared")
	p.AddBuffer("a", 64)
	tpl := core.NewTemplate(1, "t", noop)
	tpl.Instances = 2
	tpl.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "ghost", Offset: int64(ctx), Size: 4}, {Buffer: "a", Size: 8, Write: true}}
	}
	p.AddBlock().Add(tpl)
	checkAccessTable(t, "undeclared buffer", p)
	if got := p.AccessTable().Regions().Buffers; !reflect.DeepEqual(got, []string{"a", "ghost"}) {
		t.Fatalf("buffers = %v, want the declared one first", got)
	}
}
