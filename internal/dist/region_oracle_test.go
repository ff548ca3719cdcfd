package dist

import (
	"math/rand"
	"testing"
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

// runRegionCase interprets prog as a session's worth of region traffic —
// imports shipped to one of three nodes, exports applied, a node lost —
// over one to three buffers, drives tab and a fresh scanOracle with it,
// and requires the same answer to every import and the same version
// vector after every step. Offsets fall in a window of 64 bytes so that
// nested, identical-offset and adjacent regions are the common case; one
// size in eight is stretched so that the index's look-back has to reach
// past many short regions. tab arrives empty (fresh or reset) and is
// left as the case left it.
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
	or := newScanOracle(nodes)
	lost := make([]bool, nodes)
	for step, p := 0, prog[1:]; len(p) >= regionOpBytes; step, p = step+1, p[regionOpBytes:] {
		op, node := int(p[0])&3, int(p[0]>>2)%nodes
		buffer := buffers[int(p[0]>>4)%len(buffers)]
		off := int64(p[1] % 64)
		size := int64(p[2] % 24)
		if p[2] >= 224 {
			size *= 8
		}
		switch {
		case op == 3 && p[2]%8 == 0:
			// A node is lost: it holds nothing from now on and is never
			// shipped to again (the parent dropped its map).
			lost[node] = true
			or.nodeCache[node] = nil
			tab.dropNode(node)
		case op == 2 || op == 3:
			// An applied export; size 0 is the zero-length export a
			// byzantine worker may send.
			or.bump(RegionData{Buffer: buffer, Offset: off, Data: make([]byte, size)})
			tab.bump(buffer, off, off+size)
		case !lost[node]:
			key := regionKey{buffer: buffer, offset: off, size: size + 1}
			wantVer, wantCached := or.ship(key, node)
			ver, cached := tab.ship(key, node)
			if ver != wantVer || cached != wantCached {
				t.Fatalf("step %d: ship %+v to node %d = (v%d, cached %v), scan says (v%d, cached %v)", step, key, node, ver, cached, wantVer, wantCached)
			}
		}
		if len(tab.ids) != len(or.regions) || len(tab.ver) != len(or.regions) {
			t.Fatalf("step %d: table tracks %d keys in %d records, scan tracks %d", step, len(tab.ids), len(tab.ver), len(or.regions))
		}
		for key, tr := range or.regions {
			id, ok := tab.ids[key]
			if !ok || tab.ver[id] != tr.ver {
				t.Fatalf("step %d (op %d %s[%d,+%d)): region %+v at v%d, scan says v%d", step, op, buffer, off, size, key, tab.ver[id], tr.ver)
			}
		}
		for n, held := range or.nodeCache {
			for id := range tab.ver {
				if lost[n] && tab.sent[id*nodes+n] != 0 {
					t.Fatalf("step %d: lost node %d still holds record %d at v%d", step, n, id, tab.sent[id*nodes+n])
				}
			}
			for key, v := range held {
				if got := tab.sent[int(tab.ids[key])*nodes+n]; got != v {
					t.Fatalf("step %d: node %d holds %+v at v%d, scan says v%d", step, n, key, got, v)
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

// TestRegionIndexMatchesScan holds regionTable to the scan it replaced on
// 3 000 seeded cases. One table serves them all through reset, the way
// the fleet's free list reuses it, so state leaking from one session into
// the next fails here too.
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
