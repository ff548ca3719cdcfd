package ddmlint

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tflux/internal/core"
)

// dropGraphs empties the list of block graphs, so that the next lint
// expands into new arrays, as the first lint in a process does.
func dropGraphs() {
	for graphs.Get() != nil {
	}
}

// TestRecycledGraphsLintAlike holds a lint on recycled block graphs to a
// lint on new ones: over FuzzRaceOracle's seed programs, the shapes
// FuzzLintOracle's seeds name (a double fire, dead instances, an
// out-of-range target, a scatter/all-to-one chain), a program with
// out-of-bounds and undeclared regions, and every early return (each
// analysis cap, and a cyclic graph), the report of a first lint in the process equals the report of
// a lint whose graphs FFT-32/1 and the programs before it grew and left
// behind. Both reports are printed when made and again after every later
// lint, so a finding that aliased a recycled array would show up changed.
func TestRecycledGraphsLintAlike(t *testing.T) {
	type lintCase struct {
		name string
		p    *core.Program
		opts Options
	}
	var cases []lintCase
	for i, seed := range raceSeeds {
		cases = append(cases, lintCase{fmt.Sprintf("race seed %d", i), buildFuzzProgram(seed), Options{}})
	}
	// pair is a -> c over m, n instances each, and c -> sink when sink.
	pair := func(name string, m core.Mapping, n core.Context, sink bool) lintCase {
		p := core.NewProgram(name)
		b := p.AddBlock()
		a := core.NewTemplate(1, "a", noop)
		a.Instances = n
		c := core.NewTemplate(2, "c", noop)
		c.Instances = n
		a.Then(2, m)
		b.Add(a)
		b.Add(c)
		if sink {
			c.Then(3, core.AllToOne{})
			b.Add(core.NewTemplate(3, "sink", noop))
		}
		return lintCase{name, p, Options{}}
	}
	cases = append(cases,
		pair("double fire", overDeliver{}, 4, false),
		pair("dead instances", underDeliver{}, 4, true),
		pair("out-of-range target", wildTarget{}, 2, false),
		pair("scatter/all-to-one chain", core.Scatter{Fan: 4}, 8, true),
	)
	stray := core.NewProgram("stray")
	stray.AddBuffer("buf", 64)
	w := core.NewTemplate(1, "w", noop)
	w.Instances = 4
	w.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{
			{Buffer: "buf", Offset: 8 * int64(ctx), Size: 8, Write: true},
			{Buffer: "buf", Offset: 32, Size: 64},
			{Buffer: "ghost", Size: 8, Write: true},
		}
	}
	stray.AddBlock().Add(w)
	cycle := core.NewProgram("cycle")
	stage := core.NewTemplate(1, "stage", noop)
	stage.Instances = 4
	stage.Then(1, fakeInc{})
	cycle.AddBlock().Add(stage)
	racy := racePair("racy", true, false, false)
	cases = append(cases,
		lintCase{"stray regions", stray, Options{}},
		lintCase{"MaxInstances cap", racy, Options{MaxInstances: 1}},
		lintCase{"MaxEdges cap", suiteProgram(t, "FFT", 8, 1), Options{MaxEdges: 2}},
		lintCase{"MaxRaceInstances cap", racy, Options{MaxRaceInstances: 1}},
		lintCase{"MaxRaceBytes cap", racy, Options{MaxRaceBytes: 1}},
		lintCase{"cyclic graph", cycle, Options{}},
	)
	lint := func(c lintCase) *Report {
		t.Helper()
		r, err := LintOpts(c.p, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return r
	}
	fft := suiteProgram(t, "FFT", 32, 1)
	type made struct {
		r    *Report
		text string
	}
	var first, recycled []made
	for _, c := range cases {
		dropGraphs()
		r := lint(c)
		first = append(first, made{r, fmt.Sprintf("%+v", *r)})
		if _, err := Lint(fft); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		r := lint(c)
		recycled = append(recycled, made{r, fmt.Sprintf("%+v", *r)})
	}
	for i, c := range cases {
		f, g := first[i], recycled[i]
		if f.text != g.text {
			t.Fatalf("%s: a lint on recycled graphs reports\n%s\nwhere a first lint reports\n%s", c.name, g.text, f.text)
		}
		for _, m := range []made{f, g} {
			if now := fmt.Sprintf("%+v", *m.r); now != m.text {
				t.Fatalf("%s: a report changed after later lints:\nmade   %s\nnow    %s", c.name, m.text, now)
			}
		}
	}
	for _, note := range []string{"MaxInstances", "MaxEdges", "MaxRaceInstances", "MaxRaceBytes", "cyclic"} {
		hit := false
		for _, f := range first {
			for _, n := range f.r.Notes {
				hit = hit || strings.Contains(n, note)
			}
		}
		if !hit {
			t.Errorf("no case took the %s early return", note)
		}
	}
}

// warmLintBytesCeiling is 97 080 bytes measured, + 5 %. Before block
// graphs were recycled, the same lint allocated 248 222 bytes.
const warmLintBytesCeiling = 100 << 10

// TestWarmLintBytesCeiling pins what a lint of a newly built FFT-32/1
// allocates once an earlier lint has left its block graph: the program's
// access table, the report, and little else.
func TestWarmLintBytesCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	const runs = 5
	fresh := make([]*core.Program, 0, runs+1)
	for range runs + 1 {
		fresh = append(fresh, suiteProgram(t, "FFT", 32, 1))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := LintOpts(fresh[0], admitOpts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range fresh[1:] {
		if _, err := LintOpts(p, admitOpts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("a warm lint of a fresh FFT-32/1: %.0f bytes, %.0f allocs", bytes, allocs)
	if bytes > warmLintBytesCeiling {
		t.Fatalf("a warm lint of a fresh FFT-32/1 allocates %.0f bytes, want <= %d", bytes, warmLintBytesCeiling)
	}
}
