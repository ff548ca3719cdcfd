package hardsim

import (
	"strings"
	"testing"

	"tflux/internal/core"
	"tflux/internal/sim"
)

// parallelSum builds an n-worker map+reduce with a uniform cost model and
// per-worker private regions of a shared buffer.
func parallelSum(workers core.Context, perWorkerCost int64) (*core.Program, *int64) {
	parts := make([]int64, workers)
	result := new(int64)
	p := core.NewProgram("psum")
	p.AddBuffer("parts", int64(workers)*8)
	b := p.AddBlock()
	work := core.NewTemplate(1, "work", func(ctx core.Context) { parts[ctx] = int64(ctx) })
	work.Instances = workers
	work.Cost = func(core.Context) int64 { return perWorkerCost }
	work.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "parts", Offset: int64(ctx) * 8, Size: 8, Write: true}}
	}
	reduce := core.NewTemplate(2, "reduce", func(core.Context) {
		for _, v := range parts {
			*result += v
		}
	})
	reduce.Cost = func(core.Context) int64 { return int64(workers) * 4 }
	reduce.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "parts", Offset: 0, Size: int64(workers) * 8, Write: false}}
	}
	work.Then(2, core.AllToOne{})
	b.Add(work)
	b.Add(reduce)
	return p, result
}

func TestRunFunctionalResult(t *testing.T) {
	p, result := parallelSum(16, 1000)
	res, err := Run(p, Config{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if *result != 120 {
		t.Fatalf("sum = %d, want 120", *result)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles charged")
	}
	var executed int64
	for _, c := range res.Cores {
		executed += c.Executed
	}
	if executed != 17 {
		t.Fatalf("executed = %d, want 17", executed)
	}
	if res.TSU.Inlets != 1 || res.TSU.Outlets != 1 {
		t.Fatalf("inlets/outlets = %d/%d", res.TSU.Inlets, res.TSU.Outlets)
	}
}

func TestRunScalesWithCores(t *testing.T) {
	cycles := func(cores int) sim.Time {
		p, _ := parallelSum(32, 50_000)
		res, err := Run(p, Config{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c4, c16 := cycles(1), cycles(4), cycles(16)
	if s4 := float64(c1) / float64(c4); s4 < 3.0 {
		t.Fatalf("4-core speedup = %.2f, want near-linear (>3)", s4)
	}
	if s16 := float64(c1) / float64(c16); s16 < 10.0 {
		t.Fatalf("16-core speedup = %.2f, want >10", s16)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() sim.Time {
		p, _ := parallelSum(24, 10_000)
		res, err := Run(p, Config{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

func TestTSULatencyInsensitivityForCoarseThreads(t *testing.T) {
	// The paper's §3.3 claim: raising TSU processing from 1 to 128 cycles
	// changes performance by <1% when DThreads are coarse enough.
	cycles := func(lat sim.Time) sim.Time {
		p, _ := parallelSum(32, 200_000)
		res, err := Run(p, Config{Cores: 8, TSULat: lat})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c128 := cycles(1), cycles(128)
	delta := float64(c128-c1) / float64(c1)
	if delta < 0 {
		delta = -delta
	}
	if delta > 0.01 {
		t.Fatalf("TSU latency 1->128 changed runtime by %.2f%%, want <1%%", delta*100)
	}
}

func TestTSULatencyMattersForFineThreads(t *testing.T) {
	// Sanity check of the same experiment's contrapositive: tiny DThreads
	// must be sensitive to TSU latency, otherwise the device model is not
	// actually on the critical path.
	cycles := func(lat sim.Time) sim.Time {
		p, _ := parallelSum(256, 10)
		res, err := Run(p, Config{Cores: 8, TSULat: lat})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c1, c128 := cycles(1), cycles(128)
	if float64(c128) < 1.5*float64(c1) {
		t.Fatalf("fine-grained run insensitive to TSU latency (%d vs %d)", c1, c128)
	}
}

func TestCoherencyMissesFromSharedWrites(t *testing.T) {
	// All workers read the whole shared buffer another phase wrote:
	// coherence traffic must appear (this is MMULT's limiter in §6.1.2).
	p := core.NewProgram("share")
	p.AddBuffer("m", 1<<14)
	b := p.AddBlock()
	wr := core.NewTemplate(1, "writer", func(core.Context) {})
	wr.Cost = func(core.Context) int64 { return 100 }
	wr.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "m", Offset: 0, Size: 1 << 14, Write: true}}
	}
	rd := core.NewTemplate(2, "readers", func(core.Context) {})
	rd.Instances = 8
	rd.Cost = func(core.Context) int64 { return 100 }
	rd.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "m", Offset: 0, Size: 1 << 14, Write: false}}
	}
	wr.Then(2, core.OneToAll{})
	b.Add(wr)
	b.Add(rd)
	res, err := Run(p, Config{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.CoherenceMisses == 0 {
		t.Fatal("no coherence misses despite cross-core sharing")
	}
}

func TestUnknownBufferRejected(t *testing.T) {
	p := core.NewProgram("bad")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "x", func(core.Context) {})
	tpl.Cost = func(core.Context) int64 { return 10 }
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "nope", Size: 8}}
	}
	b.Add(tpl)
	_, err := Run(p, Config{Cores: 2})
	if err == nil || !strings.Contains(err.Error(), "undeclared buffer") {
		t.Fatalf("err = %v, want undeclared buffer", err)
	}
}

func TestBodyPanicSurfaces(t *testing.T) {
	p := core.NewProgram("boom")
	p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) { panic("bang") }))
	_, err := Run(p, Config{Cores: 2})
	if err == nil || !strings.Contains(err.Error(), "bang") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestSequentialBaseline(t *testing.T) {
	bufs := []core.Buffer{{Name: "a", Size: 4096}}
	steps := []Step{
		{Cost: 1000, Regions: []core.MemRegion{{Buffer: "a", Size: 4096, Write: true}}},
		{Cost: 2000, Regions: []core.MemRegion{{Buffer: "a", Size: 4096}}},
	}
	res, err := Sequential(bufs, steps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 3000 {
		t.Fatalf("cycles = %d, want compute + memory > 3000", res.Cycles)
	}
	// Second pass hits in cache: far cheaper than the cold pass.
	if res.Mem.L2Misses == 0 {
		t.Fatal("no cold misses recorded")
	}
}

func TestSequentialUnknownBuffer(t *testing.T) {
	_, err := Sequential(nil, []Step{{Regions: []core.MemRegion{{Buffer: "x", Size: 8}}}}, Config{})
	if err == nil {
		t.Fatal("undeclared buffer accepted")
	}
}

// TestRegionOutsideBufferRejected pins that a region lying outside its
// declared buffer is an error naming the instance (or step), the buffer
// and the range, on both entry points, instead of being charged to a
// guard page, the next buffer or a wrapped address.
func TestRegionOutsideBufferRejected(t *testing.T) {
	bufs := []core.Buffer{{Name: "a", Size: 64}, {Name: "b", Size: 64}}
	for _, tc := range []struct {
		reg  core.MemRegion
		want string
	}{
		{core.MemRegion{Buffer: "a", Offset: 4096, Size: 8}, "[4096,+8)"},
		{core.MemRegion{Buffer: "a", Offset: -8, Size: 8}, "[-8,+8)"},
		{core.MemRegion{Buffer: "a", Offset: 60, Size: 8}, "[60,+8)"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			p := core.NewProgram("oob")
			p.Buffers = bufs
			tpl := core.NewTemplate(1, "x", func(core.Context) {})
			tpl.Instances = 2
			tpl.Access = func(ctx core.Context) []core.MemRegion {
				if ctx == 1 {
					return []core.MemRegion{tc.reg}
				}
				return nil
			}
			p.AddBlock().Add(tpl)
			_, err := Run(p, Config{Cores: 2})
			if err == nil || !strings.Contains(err.Error(), "T1.1") || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run: err = %v, want the instance, buffer \"a\" and %s named", err, tc.want)
			}
			steps := []Step{{Cost: 1}, {Cost: 1, Regions: []core.MemRegion{tc.reg}}}
			_, err = Sequential(bufs, steps, Config{})
			if err == nil || !strings.Contains(err.Error(), "step 1") || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Sequential: err = %v, want step 1, buffer \"a\" and %s named", err, tc.want)
			}
		})
	}
}

// underDeliver declares two producers per consumer context but enables
// each only once, so the consumers never fire.
type underDeliver struct{}

func (underDeliver) AppendTargets(dst []core.Context, pctx, pInst, cInst core.Context) []core.Context {
	return append(dst, pctx)
}
func (underDeliver) InDegree(cctx, pInst, cInst core.Context) uint32 { return 2 }
func (underDeliver) String() string                                  { return "underDeliver" }

// TestStalledSimulationReported pins that a program which can never
// reach its last Outlet ends in an error once the event queue drains,
// instead of returning a cycle count.
func TestStalledSimulationReported(t *testing.T) {
	p := core.NewProgram("stall")
	b := p.AddBlock()
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = 4
	cons := core.NewTemplate(2, "cons", func(core.Context) { t.Error("a never-enabled consumer ran") })
	cons.Instances = 4
	prod.Then(2, underDeliver{})
	b.Add(prod)
	b.Add(cons)
	_, err := Run(p, Config{Cores: 4})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want stall report", err)
	}
}

func TestLayoutGuardPages(t *testing.T) {
	l := newLayout([]core.Buffer{{Name: "a", Size: 100}, {Name: "b", Size: 100}})
	aa, _ := l.addr(core.MemRegion{Buffer: "a"})
	bb, _ := l.addr(core.MemRegion{Buffer: "b"})
	if aa == bb || bb-aa < 2*pageSize {
		t.Fatalf("buffers too close: %#x %#x", aa, bb)
	}
	if aa%pageSize != 0 || bb%pageSize != 0 {
		t.Fatal("buffer bases not page aligned")
	}
}

func TestMultipleTSUGroupsCorrectAndFaster(t *testing.T) {
	// Fine-grained program with a slow TSU: command processing is the
	// bottleneck, so partitioning the TSU Group must help (§4.1).
	cycles := func(groups int) sim.Time {
		p, result := parallelSum(512, 50)
		res, err := Run(p, Config{Cores: 16, TSUGroups: groups, TSULat: 64})
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := 0; i < 512; i++ {
			want += int64(i)
		}
		if *result != want {
			t.Fatalf("groups=%d: sum = %d, want %d", groups, *result, want)
		}
		return res.Cycles
	}
	c1, c4 := cycles(1), cycles(4)
	if c4 >= c1 {
		t.Fatalf("4 TSU groups (%d cycles) not faster than 1 (%d cycles) on a TSU-bound run", c4, c1)
	}
}

func TestTSUGroupsClampedToCores(t *testing.T) {
	p, _ := parallelSum(8, 100)
	if _, err := Run(p, Config{Cores: 2, TSUGroups: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupOfPartitionsContiguously(t *testing.T) {
	m := &machine{cfg: Config{Cores: 27, TSUGroups: 4}}
	last := 0
	counts := map[int]int{}
	for c := 0; c < 27; c++ {
		g := m.groupOf(c)
		if g < last {
			t.Fatalf("group assignment not monotone at core %d", c)
		}
		if g >= 4 {
			t.Fatalf("group %d out of range", g)
		}
		last = g
		counts[g]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d groups used", len(counts))
	}
}

func TestTransistorBudgetNearPaper(t *testing.T) {
	got := TransistorBudget(256, 27)
	if got < 380_000 || got > 480_000 {
		t.Fatalf("budget = %d, want ≈430K (paper §4.1)", got)
	}
	// Monotone in both dimensions.
	if TransistorBudget(512, 27) <= got || TransistorBudget(256, 54) <= got {
		t.Fatal("budget not monotone in size parameters")
	}
}

func TestPopFollowsArrivalOrder(t *testing.T) {
	m := &machine{
		cfg:   Config{Cores: 1},
		ready: make([][]core.Instance, 1),
		head:  make([]int, 1),
	}
	m.ready[0] = []core.Instance{
		{Thread: 9, Ctx: 0},
		{Thread: 5, Ctx: 7},
		{Thread: 5, Ctx: 3},
	}
	for _, want := range m.ready[0][:2] {
		if inst, ok := m.pop(0); !ok || inst != want {
			t.Fatalf("pop = %v, %v; want %v", inst, ok, want)
		}
	}
	// An arrival behind the remaining entry comes out after it.
	m.ready[0] = append(m.ready[0], core.Instance{Thread: 1, Ctx: 0})
	for _, want := range []core.Instance{{Thread: 5, Ctx: 3}, {Thread: 1, Ctx: 0}} {
		if inst, ok := m.pop(0); !ok || inst != want {
			t.Fatalf("pop = %v, %v; want %v", inst, ok, want)
		}
	}
	if _, ok := m.pop(0); ok {
		t.Fatal("pop on empty queue returned ok")
	}
	if len(m.ready[0]) != 0 || m.head[0] != 0 {
		t.Fatalf("drained queue not reset: len %d, head %d", len(m.ready[0]), m.head[0])
	}
}

func TestCoreBusyAccounting(t *testing.T) {
	p, _ := parallelSum(8, 1000)
	res, err := Run(p, Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var busy sim.Time
	for _, c := range res.Cores {
		busy += c.Busy
	}
	if busy <= 0 || busy > res.Cycles*2 {
		t.Fatalf("busy = %d with %d cycles on 2 cores", busy, res.Cycles)
	}
}

func TestInletCostScalesWithBlockSize(t *testing.T) {
	// Same trivial work, but one program declares far more instances: the
	// Inlet's TSU-load time must grow with the block's size.
	cycles := func(instances core.Context) sim.Time {
		p := core.NewProgram("inlet")
		tpl := core.NewTemplate(1, "w", func(core.Context) {})
		tpl.Instances = instances
		tpl.Cost = func(core.Context) int64 { return 1 }
		p.AddBlock().Add(tpl)
		res, err := Run(p, Config{Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	small, big := cycles(4), cycles(4096)
	if big-small < 3000 { // ≥ one cycle per extra loaded instance
		t.Fatalf("inlet cost did not scale: %d vs %d cycles", small, big)
	}
}
