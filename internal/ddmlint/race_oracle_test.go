package ddmlint

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tflux/internal/core"
)

// reportRacesBrute is the race pass as it was before the interval sweep:
// every accessor pair, every region pair. It is kept, unchanged, as the
// reference reportRaces must agree with finding for finding — kind,
// threads, exemplar instances, buffer, count, message and order.
func reportRacesBrute(r *Report, g *blockGraph, accs []accessor, ordered func(a, b int) bool) {
	// Aggregate conflicts per (kind, template pair, buffer).
	type pairKey struct {
		kind   Kind
		ta, tb core.ThreadID
		buf    string
	}
	type pairAgg struct {
		count  int
		a, b   core.Instance  // exemplar pair
		ra, rb core.MemRegion // exemplar regions
	}
	found := make(map[pairKey]*pairAgg)
	var order []pairKey
	for ai := 0; ai < len(accs); ai++ {
		for bi := ai + 1; bi < len(accs); bi++ {
			if ordered(ai, bi) || ordered(bi, ai) {
				continue
			}
			a, b := &accs[ai], &accs[bi]
			for _, ra := range a.regs {
				for _, rb := range b.regs {
					if ra.Buffer != rb.Buffer || (!ra.Write && !rb.Write) {
						continue
					}
					if ra.Offset+ra.Size <= rb.Offset || rb.Offset+rb.Size <= ra.Offset {
						continue // disjoint
					}
					kind := KindRace
					if ra.Write && rb.Write {
						kind = KindWriteConflict
					}
					key := pairKey{kind: kind, ta: a.id.Thread, tb: b.id.Thread, buf: ra.Buffer}
					pa := found[key]
					if pa == nil {
						pa = &pairAgg{a: a.id, b: b.id, ra: ra, rb: rb}
						found[key] = pa
						order = append(order, key)
					}
					pa.count++
				}
			}
		}
	}
	for _, key := range order {
		pa := found[key]
		mode := "read/write"
		if key.kind == KindWriteConflict {
			mode = "write/write"
		}
		threads := []core.ThreadID{key.ta}
		if key.tb != key.ta {
			threads = append(threads, key.tb)
			sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
		}
		consequence := "no arc path orders them"
		if key.kind == KindWriteConflict {
			consequence = "no arc path orders them; the final contents depend on scheduling (nondeterministic result)"
		}
		r.Findings = append(r.Findings, Finding{
			Kind:      key.kind,
			Block:     g.b.ID,
			Threads:   threads,
			Instances: []core.Instance{pa.a, pa.b},
			Buffer:    key.buf,
			Count:     pa.count,
			Msg: fmt.Sprintf(
				"%d unordered %s conflict(s) on buffer %q between threads %s and %s: e.g. %s touches bytes [%d,%d) and %s touches bytes [%d,%d); %s",
				pa.count, mode, key.buf,
				g.p.TemplateName(key.ta), g.p.TemplateName(key.tb),
				pa.a, pa.ra.Offset, pa.ra.Offset+pa.ra.Size,
				pa.b, pa.rb.Offset, pa.rb.Offset+pa.rb.Size,
				consequence),
		})
	}
}

// raceOracle runs the sweep and the all-pairs reference over the same
// access table and happens-before order of every acyclic Block of p and
// fails on any difference. It returns the number of race findings.
func raceOracle(t *testing.T, p *core.Program) int {
	t.Helper()
	opts := Options{}.withDefaults()
	bufs := bufferIndex(p)
	n := 0
	for _, b := range p.Blocks {
		var scratch Report
		g, ok := expandBlock(&scratch, p, b, opts)
		if !ok {
			t.Fatalf("block %d not expanded: %v", b.ID, scratch.Notes)
		}
		g.checkCycles(&scratch)
		g.checkBounds(&scratch, bufs)
		if g.hasCycle || len(g.accs) < 2 {
			continue
		}
		ordered := accessorOrder(&scratch, g, "race analysis", opts)
		if ordered == nil {
			t.Fatalf("block %d: %v", b.ID, scratch.Notes)
		}
		var sweep, brute Report
		reportRaces(&sweep, g, bufs, ordered)
		reportRacesBrute(&brute, g, g.accs, ordered)
		if !reflect.DeepEqual(sweep.Findings, brute.Findings) {
			t.Fatalf("block %d: the sweep and the all-pairs reference disagree\nsweep: %v\nbrute: %v",
				b.ID, sweep.Findings, brute.Findings)
		}
		n += len(sweep.Findings)
	}
	return n
}

// raceSeeds are fuzz inputs (see buildFuzzProgram) for the shapes the race
// pass is about: racePair's four, and an FFT-like program — a row phase
// writing 8-byte rows, a column phase whose every context reads and
// writes one byte of each of three rows — with and without the phase
// barrier between them.
var raceSeeds = [][]byte{
	// two 1-instance templates on bytes [0,8) of "a"; flags bit 0 = write
	{1, 0, 0, 0, 0, 1, 1, 4, 8, 1, 0, 4, 8},          // write, read, unordered: race
	{1, 0, 0, 0, 0, 1, 1, 4, 8, 1, 1, 4, 8},          // write, write, unordered: write-conflict
	{1, 0, 0, 0, 0, 1, 0, 4, 8, 1, 0, 4, 8},          // read, read: clean
	{1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 4, 8, 1, 0, 4, 8}, // write -> read through an arc: clean
	// rows: stride 8 (flags 8|1), cols: stride 1 at bases 0, 8 (write) and 16 (read)
	{1, 7, 7, 1, 1, 2, 0, 0, 1, 9, 4, 8, 3, 5, 4, 1, 5, 12, 1, 4, 20, 1}, // one-to-all barrier: clean
	{1, 7, 7, 0, 0, 1, 9, 4, 8, 3, 5, 4, 1, 5, 12, 1, 4, 20, 1},          // no barrier: rows race with columns
}

// TestRaceSweepMatchesBruteForce holds the interval sweep to the
// all-pairs loop it replaced: on the seed shapes, on a suite program made
// racy (FFT-32/1 without its phase barriers: thousands of strided
// conflicts), and on seeded random programs.
func TestRaceSweepMatchesBruteForce(t *testing.T) {
	wantRacy := []bool{true, true, false, false, false, true}
	for i, seed := range raceSeeds {
		p := buildFuzzProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if got := raceOracle(t, p) > 0; got != wantRacy[i] {
			t.Errorf("seed %d: racy = %v, want %v", i, got, wantRacy[i])
		}
	}

	fft := suiteProgram(t, "FFT", 32, 1)
	for _, tpl := range fft.Blocks[0].Templates[1:] {
		tpl.Arcs = nil // rowfft, colfft and scale now run unordered
	}
	if raceOracle(t, fft) == 0 {
		t.Error("FFT-32/1 without its phase barriers has no race finding")
	}

	rng := rand.New(rand.NewSource(17))
	valid, racy := 0, 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 16+rng.Intn(40))
		rng.Read(data)
		p := buildFuzzProgram(data)
		if p.Validate() != nil {
			continue
		}
		valid++
		if raceOracle(t, p) > 0 {
			racy++
		}
	}
	t.Logf("random programs: %d valid, %d racy", valid, racy)
	if valid < 300 || racy < 100 {
		t.Fatalf("random programs: %d valid, %d racy; too few to mean anything", valid, racy)
	}
}

func FuzzRaceOracle(f *testing.F) {
	for _, seed := range raceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)
		if p.Validate() != nil {
			return
		}
		raceOracle(t, p)
	})
}
