package core

import (
	"cmp"
	"slices"
	"sync"
)

// AccessTable remembers what a program's Access models return, one row
// per instance, so the models are evaluated once per program instead of
// once per consumer and firing. A row is the slice the model returned,
// retained and never written (AccessFn's contract).
//
// The table a program hands out through (*Program).AccessTable is
// complete and immutable, so any number of goroutines may read it. A
// table from NewAccessTable starts empty and evaluates a row the first
// time Row asks for it; that one is for a single owner, such as a worker
// replica that executes only its share of the instances.
type AccessTable struct {
	p     *Program
	tmpls map[ThreadID]*accessRows

	regionsOnce sync.Once
	regions     *RegionIndex
}

// accessRows is one template's rows, by context.
type accessRows struct {
	t    *Template
	rows [][]MemRegion
	have []bool // have[ctx]: rows[ctx] holds the model's answer (nil included)
}

// NewAccessTable returns an empty table over p's templates that have an
// Access model. Row fills it on demand, so it is not safe for concurrent
// use.
func NewAccessTable(p *Program) *AccessTable {
	a := &AccessTable{p: p, tmpls: make(map[ThreadID]*accessRows)}
	for _, b := range p.Blocks {
		for _, t := range b.Templates {
			if t.Access != nil {
				a.tmpls[t.ID] = &accessRows{t: t, rows: make([][]MemRegion, t.Instances), have: make([]bool, t.Instances)}
			}
		}
	}
	return a
}

// AccessTable returns p's complete access table, evaluating every model
// once on the first request: a program that is never linted or opened on
// a Fleet never pays for one. From that request on the program is frozen
// (see AccessFn).
func (p *Program) AccessTable() *AccessTable {
	p.accessOnce.Do(func() {
		p.access = NewAccessTable(p)
		p.access.fill()
	})
	return p.access
}

func (a *AccessTable) fill() {
	for _, r := range a.tmpls {
		for ctx := range r.rows {
			r.row(Context(ctx))
		}
	}
}

func (r *accessRows) row(ctx Context) []MemRegion {
	if !r.have[ctx] {
		r.rows[ctx], r.have[ctx] = r.t.Access(ctx), true
	}
	return r.rows[ctx]
}

// Row returns the regions inst's Access model declares: nil for a
// template without a model and for a context the template does not have.
func (a *AccessTable) Row(inst Instance) []MemRegion {
	r := a.tmpls[inst.Thread]
	if r == nil || int(inst.Ctx) >= len(r.rows) {
		return nil
	}
	return r.row(inst.Ctx)
}

// Regions returns the interned form of the table, built on the first
// request (a Fleet's; lint reads rows only) over every row.
func (a *AccessTable) Regions() *RegionIndex {
	a.regionsOnce.Do(func() {
		a.fill()
		a.regions = newRegionIndex(a)
	})
	return a.regions
}

// RegionSpan is a byte range of one buffer, the buffer given by its
// position in RegionIndex.Buffers.
type RegionSpan struct {
	Off, Size int64
	Buf       int32
}

// RegionIndex is the static half of a data plane's region bookkeeping:
// every distinct sized import region of a program is a dense id, and the
// ids of one buffer are contiguous and sorted by offset, so the regions
// an export overlaps are found by binary search. Zero- and negative-size
// regions are left out, as every consumer ignores them. It is immutable.
type RegionIndex struct {
	// Buffers names the buffers spans refer to: the program's declared
	// buffers in declaration order, then any other name a model uses.
	Buffers []string
	// Spans holds the distinct import regions sorted by (Buf, Off, Size);
	// a region's id is its position.
	Spans []RegionSpan

	bufStart []int32      // buffer b's ids are bufStart[b] ≤ id < bufStart[b+1]
	maxSize  []int64      // the largest Size among buffer b's spans
	ids      []int32      // every instance's import ids, instance after instance
	exports  []RegionSpan // likewise its exports
	tmpls    map[ThreadID]instRegions
}

// instRegions locates one template's regions: context c's import ids are
// ids[imports[c]:imports[c+1]], in the order its model lists them, and
// its exports likewise.
type instRegions struct {
	imports, exports []int32
}

// Instance returns the ids of the regions inst reads and the regions it
// writes. Both alias the index and are only read.
func (x *RegionIndex) Instance(inst Instance) (imports []int32, exports []RegionSpan) {
	r, c := x.tmpls[inst.Thread], int(inst.Ctx)
	if c+1 >= len(r.imports) {
		return nil, nil
	}
	return x.ids[r.imports[c]:r.imports[c+1]], x.exports[r.exports[c]:r.exports[c+1]]
}

// BufferSpans returns the id range [lo, hi) of buffer buf's import
// regions and the largest size among them: a region that overlaps
// [o, e) ends after o, so it starts after o-maxSize, and before e.
func (x *RegionIndex) BufferSpans(buf int32) (lo, hi int32, maxSize int64) {
	return x.bufStart[buf], x.bufStart[buf+1], x.maxSize[buf]
}

func newRegionIndex(a *AccessTable) *RegionIndex {
	p := a.p
	x := &RegionIndex{Buffers: make([]string, len(p.Buffers)), tmpls: make(map[ThreadID]instRegions, len(a.tmpls))}
	bufOf := make(map[string]int32, len(p.Buffers))
	for i, b := range p.Buffers {
		x.Buffers[i], bufOf[b.Name] = b.Name, int32(i)
	}
	var nImports, nExports int
	for _, r := range a.tmpls {
		for _, row := range r.rows {
			for _, reg := range row {
				if reg.Size > 0 && reg.Write {
					nExports++
				} else if reg.Size > 0 {
					nImports++
				}
			}
		}
	}

	// One pass lists every import beside the slot of ids it fills in;
	// sorting that list groups equal regions, which share an id, and
	// leaves the ids in index order.
	type importSlot struct {
		RegionSpan
		slot int32
	}
	imports := make([]importSlot, 0, nImports)
	x.ids = make([]int32, nImports)
	x.exports = make([]RegionSpan, 0, nExports)
	for _, b := range p.Blocks {
		for _, t := range b.Templates {
			r := a.tmpls[t.ID]
			if r == nil {
				continue
			}
			ir := instRegions{imports: make([]int32, 0, len(r.rows)+1), exports: make([]int32, 0, len(r.rows)+1)}
			for _, row := range r.rows {
				ir.imports, ir.exports = append(ir.imports, int32(len(imports))), append(ir.exports, int32(len(x.exports)))
				for _, reg := range row {
					if reg.Size <= 0 {
						continue
					}
					buf, ok := bufOf[reg.Buffer]
					if !ok {
						buf = int32(len(x.Buffers))
						x.Buffers, bufOf[reg.Buffer] = append(x.Buffers, reg.Buffer), buf
					}
					sp := RegionSpan{Off: reg.Offset, Size: reg.Size, Buf: buf}
					if reg.Write {
						x.exports = append(x.exports, sp)
					} else {
						imports = append(imports, importSlot{sp, int32(len(imports))})
					}
				}
			}
			ir.imports, ir.exports = append(ir.imports, int32(len(imports))), append(ir.exports, int32(len(x.exports)))
			x.tmpls[t.ID] = ir
		}
	}
	slices.SortFunc(imports, func(a, b importSlot) int {
		return cmp.Or(cmp.Compare(a.Buf, b.Buf), cmp.Compare(a.Off, b.Off), cmp.Compare(a.Size, b.Size))
	})
	x.Spans = make([]RegionSpan, 0, nImports)
	x.bufStart = make([]int32, len(x.Buffers)+1)
	x.maxSize = make([]int64, len(x.Buffers))
	for _, im := range imports {
		if n := len(x.Spans); n == 0 || x.Spans[n-1] != im.RegionSpan {
			x.Spans = append(x.Spans, im.RegionSpan)
			x.maxSize[im.Buf] = max(x.maxSize[im.Buf], im.Size)
		}
		x.ids[im.slot] = int32(len(x.Spans) - 1)
		x.bufStart[im.Buf+1] = int32(len(x.Spans))
	}
	for b := range x.maxSize { // a buffer nothing imports ends where the one before it does
		x.bufStart[b+1] = max(x.bufStart[b+1], x.bufStart[b])
	}
	return x
}
