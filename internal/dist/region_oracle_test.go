package dist

import (
	"math/rand"
	"testing"

	"tflux/internal/core"
)

// trackedRegion and scanOracle are the region-cache bookkeeping that
// regionTable replaced, kept verbatim as its reference: one map of
// version records, one map per node of the version it holds, and — the
// loop the interval index exists to avoid — every export walking every
// tracked region of its buffer.
type trackedRegion struct {
	key regionKey
	ver uint64
}

type scanOracle struct {
	regions   map[regionKey]*trackedRegion
	byBuf     map[string][]*trackedRegion
	nodeCache []map[regionKey]uint64
}

func newScanOracle(nodes int) *scanOracle {
	o := &scanOracle{
		regions:   make(map[regionKey]*trackedRegion),
		byBuf:     make(map[string][]*trackedRegion),
		nodeCache: make([]map[regionKey]uint64, nodes),
	}
	for i := range o.nodeCache {
		o.nodeCache[i] = make(map[regionKey]uint64)
	}
	return o
}

// ship is the body of the parent's buildExec for one import region.
func (o *scanOracle) ship(key regionKey, target int) (ver uint64, cached bool) {
	tr := o.regions[key]
	if tr == nil {
		tr = &trackedRegion{key: key, ver: 1}
		o.regions[key] = tr
		o.byBuf[key.buffer] = append(o.byBuf[key.buffer], tr)
	}
	if o.nodeCache[target][key] == tr.ver {
		return tr.ver, true
	}
	o.nodeCache[target][key] = tr.ver
	return tr.ver, false
}

// bump is the parent's handleDone loop for one applied export.
func (o *scanOracle) bump(rdata RegionData) {
	for _, tr := range o.byBuf[rdata.Buffer] {
		if tr.key.offset < rdata.Offset+int64(len(rdata.Data)) && rdata.Offset < tr.key.offset+tr.key.size {
			tr.ver++
		}
	}
}

// regionOpBytes is how many program bytes one step of a region case
// consumes.
const regionOpBytes = 3

// regionOp is one decoded step of a region case.
type regionOp struct {
	kind   int // 0 ship, 1 export, 2 node lost
	node   int
	buffer int
	off    int64
	size   int64 // of the export; a shipped region is one byte longer
}

func decodeRegionOp(p []byte, buffers int) regionOp {
	op := regionOp{node: int(p[0]>>2) % 3, buffer: int(p[0]>>4) % buffers, off: int64(p[1] % 64), size: int64(p[2] % 24)}
	if p[2] >= 224 {
		op.size *= 8
	}
	switch code := int(p[0]) & 3; {
	case code == 3 && p[2]%8 == 0:
		op.kind = 2
	case code >= 2:
		op.kind = 1
	}
	return op
}

// runRegionCase interprets prog as a session's worth of region traffic —
// imports shipped to one of three nodes, exports applied, a node lost —
// over one to three buffers. The regions are interned up front, the way
// a session finds them: a program whose one template imports the k-th
// shipped region in context k gives the core.RegionIndex, and tab is
// opened over it. The case then drives tab and a fresh scanOracle, which
// still learns regions as they ship, and requires the same answer to
// every import and the same version vector after every step. Offsets
// fall in a window of 64 bytes so that nested, identical-offset and
// adjacent regions are the common case; one size in eight is stretched
// so that the index's look-back has to reach past many short regions.
// tab arrives parked (fresh or reset) and is left as the case left it.
func runRegionCase(t *testing.T, tab *regionTable, prog []byte) {
	t.Helper()
	const nodes = 3
	if tab.nodes != nodes {
		t.Fatalf("table built for %d nodes, case needs %d", tab.nodes, nodes)
	}
	if len(prog) == 0 {
		return
	}
	buffers := []string{"A", "B", "C"}[:1+int(prog[0])%3]
	var ops []regionOp
	var shipped []core.MemRegion
	for p := prog[1:]; len(p) >= regionOpBytes; p = p[regionOpBytes:] {
		op := decodeRegionOp(p, len(buffers))
		if op.kind == 0 {
			shipped = append(shipped, core.MemRegion{Buffer: buffers[op.buffer], Offset: op.off, Size: op.size + 1})
		}
		ops = append(ops, op)
	}
	cp := core.NewProgram("region-case")
	for _, name := range buffers {
		cp.AddBuffer(name, 1<<12)
	}
	tpl := core.NewTemplate(1, "ship", func(core.Context) {})
	tpl.Instances = core.Context(len(shipped))
	tpl.Access = func(ctx core.Context) []core.MemRegion { return shipped[ctx : ctx+1] }
	cp.AddBlock().Add(tpl)
	idx := cp.AccessTable().Regions()
	tab.open(idx)

	idOf := make(map[regionKey]int32)
	for ctx := range shipped {
		ids, exports := idx.Instance(core.Instance{Thread: 1, Ctx: core.Context(ctx)})
		if len(ids) != 1 || len(exports) != 0 {
			t.Fatalf("context %d imports ids %v, want one", ctx, ids)
		}
		sp, want := idx.Spans[ids[0]], shipped[ctx]
		if idx.Buffers[sp.Buf] != want.Buffer || sp.Off != want.Offset || sp.Size != want.Size {
			t.Fatalf("context %d: id %d is %s[%d,+%d), the model declared %+v", ctx, ids[0], idx.Buffers[sp.Buf], sp.Off, sp.Size, want)
		}
		idOf[regionKey{want.Buffer, want.Offset, want.Size}] = ids[0]
	}
	if len(idOf) != len(idx.Spans) {
		t.Fatalf("%d distinct regions interned as %d ids", len(idOf), len(idx.Spans))
	}

	or := newScanOracle(nodes)
	lost := make([]bool, nodes)
	ctx := 0
	for step, op := range ops {
		switch {
		case op.kind == 2:
			// A node is lost: it holds nothing from now on and is never
			// shipped to again (the parent dropped its map).
			lost[op.node] = true
			or.nodeCache[op.node] = nil
			tab.dropNode(op.node)
		case op.kind == 1:
			// An applied export; size 0 is the zero-length export a
			// byzantine worker may send.
			or.bump(RegionData{Buffer: buffers[op.buffer], Offset: op.off, Data: make([]byte, op.size)})
			tab.bump(int32(op.buffer), op.off, op.off+op.size)
		default:
			key := regionKey{shipped[ctx].Buffer, shipped[ctx].Offset, shipped[ctx].Size}
			ctx++
			if lost[op.node] {
				break
			}
			wantVer, wantCached := or.ship(key, op.node)
			ver, cached := tab.ship(idOf[key], op.node)
			if ver != wantVer || cached != wantCached {
				t.Fatalf("step %d: ship %+v to node %d = (v%d, cached %v), scan says (v%d, cached %v)", step, key, op.node, ver, cached, wantVer, wantCached)
			}
		}
		// The version vector: what the scan tracks, at its version; what
		// it has not met yet, untracked.
		for key, id := range idOf {
			var want uint64
			if tr := or.regions[key]; tr != nil {
				want = tr.ver
			}
			if tab.ver[id] != want {
				t.Fatalf("step %d (%+v): region %+v at v%d, scan says v%d", step, op, key, tab.ver[id], want)
			}
			for n, held := range or.nodeCache {
				if got := tab.sent[int(id)*nodes+n]; got != held[key] {
					t.Fatalf("step %d: node %d holds %+v at v%d, scan says v%d", step, n, key, got, held[key])
				}
			}
		}
	}
}

// regionCaseSeeds are the programs the seeded test and the fuzz corpus
// share: rng-drawn ones, plus shapes picked by hand.
func regionCaseSeeds(n int) [][]byte {
	rng := rand.New(rand.NewSource(18))
	seeds := [][]byte{
		// Adjacent regions and an export ending exactly where one starts.
		{0, 0, 0, 7, 0, 8, 7, 2, 4, 4, 2, 8, 0, 2, 0, 8},
		// A long region before many short ones: only the look-back finds it.
		{0, 0, 0, 255, 0, 20, 1, 0, 24, 1, 0, 28, 1, 0, 32, 1, 2, 40, 2},
		// Identical offsets, different sizes; a zero-length export inside.
		{0, 0, 10, 3, 0, 10, 9, 0, 10, 15, 2, 12, 0, 2, 10, 1},
		// Two nodes hold a region, one is lost, the other still hits.
		{0, 0, 5, 3, 4, 5, 3, 7, 0, 8, 0, 5, 3, 2, 6, 1, 0, 5, 3},
	}
	for len(seeds) < n {
		p := make([]byte, 1+regionOpBytes*(1+rng.Intn(60)))
		rng.Read(p)
		seeds = append(seeds, p)
	}
	return seeds
}

// TestRegionIndexMatchesScan holds regionTable over a static index to the
// scan it replaced on 3 000 seeded cases. One table serves them all
// through reset, the way the fleet's free list reuses it, so state
// leaking from one session into the next fails here too.
func TestRegionIndexMatchesScan(t *testing.T) {
	tab := newRegionTable(3)
	for _, prog := range regionCaseSeeds(3000) {
		runRegionCase(t, tab, prog)
		tab.reset()
	}
}

func FuzzRegionIndex(f *testing.F) {
	for _, prog := range regionCaseSeeds(40) {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runRegionCase(t, newRegionTable(3), prog)
	})
}
