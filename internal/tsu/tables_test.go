package tsu

import (
	"reflect"
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
		res := s.Complete(r.Inst, r.Kernel)
		queue = append(queue, res.NewReady...)
		if res.ProgramDone {
			return trace
		}
	}
	t.Fatal("queue drained before ProgramDone")
	return nil
}

// TestTablesEquivalence pins the compile-once contract: a State built over
// frozen Tables must surface the exact Ready sequence and stats of a State
// built directly by NewStateCfg.
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
	got := driveReadySequence(t, tb.NewState())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot-backed ready sequence diverges:\n got %v\nwant %v", got, want)
	}
	ds := direct.Stats()
	snap := tb.Acquire()
	trace := driveReadySequence(t, snap)
	if !reflect.DeepEqual(trace, want) {
		t.Fatal("acquired-state ready sequence diverges")
	}
	ss := snap.Stats()
	if ds.Inlets != ss.Inlets || ds.Outlets != ss.Outlets || ds.Decrements != ss.Decrements ||
		ds.Fired != ss.Fired || !reflect.DeepEqual(ds.PerKernel, ss.PerKernel) {
		t.Fatalf("stats diverge: direct %+v snapshot %+v", ds, ss)
	}
	snap.Release()
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

// TestTablesShardedState wraps a snapshot-backed State in the sharded
// engine: serviceDone's inlet path must take the snapshot restore and the
// sharded drive must still execute every application instance exactly once.
func TestTablesShardedState(t *testing.T) {
	tb, err := NewTables(twoBlockProgram(), 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := tb.Acquire()
	ss, err := NewSharded(s, 2, TUBConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.State() != s {
		t.Fatal("sharded engine wraps a different state")
	}
	// The sharded engine shares inletDone/outletDone with the serial path;
	// a serial FIFO drive through the same State suffices to prove the
	// snapshot branch composes (the concurrency is exercised by the
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
// allocations: after one full run the SM backings are retained, so every
// subsequent Inlet restore is pure memcpy.
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
		s.curBlock = 0
		s.loaded = true
		dst = s.inletLoadSnapshot(dst[:0], 0)
	})
	if allocs != 0 {
		t.Fatalf("warm inlet restore allocates %.1f per load, want 0", allocs)
	}
	s.Reset()
	s.Release()
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
