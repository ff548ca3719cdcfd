package tsu

import (
	"reflect"
	"runtime"
	"testing"

	"tflux/internal/core"
)

// driveReadySequence runs the program to completion with the deterministic
// FIFO scheduler and returns every Ready the TSU surfaced, in order —
// the full observable output of the synchronization engine.
func driveReadySequence(t *testing.T, s *State) []Ready {
	t.Helper()
	var trace []Ready
	queue := []Ready{s.Start()}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		trace = append(trace, r)
		var done bool
		queue, _, done = s.CompleteInto(queue, r.Inst, r.Kernel)
		if done {
			return trace
		}
	}
	t.Fatal("queue drained before ProgramDone")
	return nil
}

// TestTablesEquivalence pins the compile-once contract: a State acquired
// from frozen Tables, fresh or pooled, must surface the exact Ready
// sequence and stats of a State built directly by NewStateCfg.
func TestTablesEquivalence(t *testing.T) {
	p := twoBlockProgram()
	direct, err := NewStateCfg(p, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := driveReadySequence(t, direct)

	tb, err := NewTables(twoBlockProgram(), 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds := direct.Stats()
	for _, run := range []string{"fresh", "pooled"} {
		s := tb.Acquire()
		got := driveReadySequence(t, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s acquired state's ready sequence diverges:\n got %v\nwant %v", run, got, want)
		}
		if ss := s.Stats(); !reflect.DeepEqual(ds, ss) {
			t.Fatalf("%s acquired state's stats diverge: direct %+v acquired %+v", run, ds, ss)
		}
		s.Release()
	}
}

// TestTablesPoolReuse runs the same State through Acquire → drive → Release
// repeatedly: the pool must hand the identical State back, Reset must make
// each run's output byte-identical to the first, and Stats must not leak
// across runs.
func TestTablesPoolReuse(t *testing.T) {
	tb, err := NewTables(twoBlockProgram(), 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	first := tb.Acquire()
	want := driveReadySequence(t, first)
	wantStats := first.Stats()
	first.Release()
	for run := 0; run < 5; run++ {
		s := tb.Acquire()
		if s != first {
			t.Fatalf("run %d: pool returned a different State", run)
		}
		got := driveReadySequence(t, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: ready sequence diverged after Reset", run)
		}
		if st := s.Stats(); !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("run %d: stats leaked across runs: %+v vs %+v", run, st, wantStats)
		}
		s.Release()
	}
}

// TestTablesShardedState wraps an acquired State in the sharded engine:
// serviceDone's inlet path is the one Block load, and the drive must still
// execute every application instance exactly once.
func TestTablesShardedState(t *testing.T) {
	tb, err := NewTables(twoBlockProgram(), 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Acquire()
	ss, err := NewSharded(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.s != s {
		t.Fatal("sharded engine wraps a different state")
	}
	// The sharded engine shares inletDone/outletDone with the serial path;
	// a serial FIFO drive through the same State suffices to prove an
	// acquired State composes (the concurrency is exercised by the
	// existing sharded suite).
	trace := driveReadySequence(t, s)
	apps := 0
	for _, r := range trace {
		if !s.IsService(r.Inst) {
			apps++
		}
	}
	if apps != 8 {
		t.Fatalf("executed %d app instances, want 8", apps)
	}
	s.Release()
}

// TestTablesWarmLoadAllocs pins the warm block-load path at zero
// allocations: after one full run the SM arrays and the in-degree scratch
// are retained, so every later Inlet computes into them.
func TestTablesWarmLoadAllocs(t *testing.T) {
	tb, err := NewTables(twoBlockProgram(), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Acquire()
	driveReadySequence(t, s)
	dst := make([]Ready, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		dst = s.inletDone(dst[:0], 0)
	})
	if allocs != 0 {
		t.Fatalf("warm inlet load allocates %.1f per load, want 0", allocs)
	}
	s.Reset()
	s.Release()
}

// TestInletReusesEarlierBlockArrays pins the one Block load's reuse on a
// one-shot State: a NewStateCfg State whose Block 0 is at least as large
// as Block 1, on every kernel, loads Block 1 into the arrays Block 0 left
// behind and allocates nothing.
func TestInletReusesEarlierBlockArrays(t *testing.T) {
	s, err := NewStateCfg(twoBlockProgram(), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queue := []Ready{s.Start()}
	for queue[0].Inst.Thread != s.InletID(1) {
		r := queue[0]
		queue, _, _ = s.CompleteInto(queue[1:], r.Inst, r.Kernel)
	}
	inlet := queue[0]
	dst := make([]Ready, 0, 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dst, _, _ = s.DoneInto(dst, inlet.Inst, inlet.Kernel)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("loading Block 1 after the larger Block 0 allocates %d objects, want 0", n)
	}
	if len(dst) != 2 {
		t.Fatalf("Block 1's Inlet surfaced %v, want both tail instances", dst)
	}
}

// TestTablesRejectsInvalidProgram mirrors NewStateCfg's validation.
func TestTablesRejectsInvalidProgram(t *testing.T) {
	if _, err := NewTables(core.NewProgram("empty"), 2, Config{}); err == nil {
		t.Fatal("NewTables accepted an empty program")
	}
	if _, err := NewTables(twoBlockProgram(), 0, Config{}); err == nil {
		t.Fatal("NewTables accepted 0 kernels")
	}
}

// pairMapping is a user Mapping from outside core, like the examples'
// stencils: producer context c enables consumer contexts c and c+1.
type pairMapping struct{}

func (pairMapping) AppendTargets(dst []core.Context, pctx, pInst, cInst core.Context) []core.Context {
	for c := pctx; c <= pctx+1 && c < cInst; c++ {
		dst = append(dst, c)
	}
	return dst
}

func (pairMapping) InDegree(cctx, pInst, cInst core.Context) uint32 {
	var n uint32
	if cctx < pInst {
		n++
	}
	if cctx >= 1 && cctx-1 < pInst {
		n++
	}
	return n
}

func (pairMapping) String() string { return "pair" }

// TestCompleteIntoAllocatesNothing pins the single-driver
// Post-Processing Phase at zero allocations per completion: once a
// pooled State's arc-expansion scratch and the caller's batch have grown,
// a whole run of CompleteInto calls allocates nothing, whichever Mapping
// the arcs use — including a 64-wide OneToAll, wider than any stack
// buffer the expansion once used, and a Mapping defined outside core.
func TestCompleteIntoAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		m     core.Mapping
		cInst core.Context
	}{
		{core.OneToOne{}, 64},
		{core.AllToOne{Target: 0}, 1},
		{core.OneToAll{}, 64},
		{core.Gather{Fan: 4}, 16},
		{core.Scatter{Fan: 2}, 128},
		{core.Const{Target: 3}, 4},
		{pairMapping{}, 65},
	} {
		t.Run(c.m.String(), func(t *testing.T) {
			p := core.NewProgram("complete-allocs")
			blk := p.AddBlock()
			prod := core.NewTemplate(1, "prod", func(core.Context) {})
			prod.Instances = 64
			prod.Then(2, c.m)
			cons := core.NewTemplate(2, "cons", func(core.Context) {})
			cons.Instances = c.cInst
			blk.Add(prod)
			blk.Add(cons)
			tb, err := NewTables(p, 2, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var queue, batch []Ready
			run := func() {
				s := tb.Acquire()
				queue = append(queue[:0], s.Start())
				for i := 0; i < len(queue) && !s.Finished(); i++ {
					batch, _, _ = s.CompleteInto(batch[:0], queue[i].Inst, queue[i].Kernel)
					queue = append(queue, batch...)
				}
				if !s.Finished() {
					t.Fatal("program did not finish")
				}
				s.Release()
			}
			run()
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Fatalf("a warm run of %d completions allocates %.1f objects, want 0", len(queue), n)
			}
		})
	}
}

// TestWindowReopensByResetAndInlet pins the reload a streaming window slot
// relies on: a State over a one-block Tables whose Block drained (Outlet
// surfaced but never run) is rewound by Reset, and the Inlet loads the
// same Ready Counts again, so every window fires the same instances
// exactly once.
func TestWindowReopensByResetAndInlet(t *testing.T) {
	b := &core.Block{ID: 0}
	entry := core.NewTemplate(1, "entry", noop)
	entry.Instances = 8
	entry.Then(2, core.OneToOne{})
	mid := core.NewTemplate(2, "mid", noop)
	mid.Instances = 8
	mid.Then(3, core.Gather{Fan: 4})
	agg := core.NewTemplate(3, "agg", noop)
	agg.Instances = 2
	agg.Then(4, core.AllToOne{})
	tail := core.NewTemplate(4, "tail", noop)
	tail.Instances = 1
	b.Templates = []*core.Template{entry, mid, agg, tail}
	tb, err := NewTables(&core.Program{Blocks: []*core.Block{b}}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Acquire()
	var first []core.Instance
	for win := 0; win < 3; win++ {
		s.Reset()
		queue, _, _ := s.DoneInto(nil, s.Start().Inst, 0)
		if len(queue) != int(entry.Instances) {
			t.Fatalf("window %d: inlet surfaced %d sources, want the %d entry instances", win, len(queue), entry.Instances)
		}
		var fired []core.Instance
		drained := false
		for len(queue) > 0 {
			inst := queue[0].Inst
			queue = queue[1:]
			if drained {
				t.Fatalf("window %d: %v ready after the Block drained", win, inst)
			}
			fired = append(fired, inst)
			var done bool
			queue, done, _ = s.CompleteInto(queue, inst, 0)
			if done {
				// The surfaced Outlet is the retirement signal; the
				// window retires without running it.
				if last := queue[len(queue)-1].Inst; last.Thread != s.OutletID(0) {
					t.Fatalf("window %d: drained Block surfaced %v, want its Outlet", win, last)
				}
				queue = queue[:len(queue)-1]
				drained = true
			}
		}
		if !drained || len(fired) != 19 {
			t.Fatalf("window %d: drained=%v after %d completions, want 19", win, drained, len(fired))
		}
		if win == 0 {
			first = fired
		} else if !reflect.DeepEqual(fired, first) {
			t.Fatalf("window %d fired %v, window 0 fired %v", win, fired, first)
		}
	}
}
