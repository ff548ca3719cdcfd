package tsu

import (
	"math/rand"
	"strings"
	"testing"

	"tflux/internal/core"
)

func noop(core.Context) {}

// twoBlockProgram: block 0 = src -> work(x4) -> join; block 1 = tail(x2).
func twoBlockProgram() *core.Program {
	p := core.NewProgram("two-block")
	b0 := p.AddBlock()
	src := core.NewTemplate(1, "src", noop)
	work := core.NewTemplate(2, "work", noop)
	work.Instances = 4
	join := core.NewTemplate(3, "join", noop)
	src.Then(2, core.Scatter{Fan: 4})
	work.Then(3, core.AllToOne{})
	b0.Add(src)
	b0.Add(work)
	b0.Add(join)
	b1 := p.AddBlock()
	tail := core.NewTemplate(4, "tail", noop)
	tail.Instances = 2
	b1.Add(tail)
	return p
}

// drive executes a program to completion through State.Complete with a
// simple serial scheduler, returning the execution order of application
// instances. It fails the test on any invariant violation.
func drive(t *testing.T, s *State, pick func(q []Ready) int) []core.Instance {
	t.Helper()
	var order []core.Instance
	queue := []Ready{s.Start()}
	seen := make(map[core.Instance]bool)
	steps := 0
	for len(queue) > 0 {
		steps++
		if steps > 1_000_000 {
			t.Fatal("scheduler did not terminate")
		}
		i := 0
		if pick != nil {
			i = pick(queue)
		}
		r := queue[i]
		queue = append(queue[:i], queue[i+1:]...)
		if !s.IsService(r.Inst) {
			if seen[r.Inst] {
				t.Fatalf("instance %v fired twice", r.Inst)
			}
			seen[r.Inst] = true
			order = append(order, r.Inst)
		}
		res := s.Complete(r.Inst, r.Kernel)
		queue = append(queue, res.NewReady...)
		if res.ProgramDone {
			if len(queue) != 0 {
				t.Fatalf("program done with %d queued instances", len(queue))
			}
			return order
		}
	}
	t.Fatal("queue drained before ProgramDone")
	return nil
}

func TestStateBlockSequencing(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	order := drive(t, s, nil)
	if len(order) != 8 { // 1 src + 4 work + 1 join + 2 tail
		t.Fatalf("executed %d app instances, want 8", len(order))
	}
	// src must be first, join must precede both tail instances.
	if order[0] != (core.Instance{Thread: 1}) {
		t.Fatalf("first executed = %v, want src", order[0])
	}
	joinAt := -1
	for i, inst := range order {
		if inst.Thread == 3 {
			joinAt = i
		}
		if inst.Thread == 4 && joinAt == -1 {
			t.Fatalf("tail %v executed before join", inst)
		}
	}
	st := s.Stats()
	if st.Inlets != 2 || st.Outlets != 2 {
		t.Fatalf("inlets/outlets = %d/%d, want 2/2", st.Inlets, st.Outlets)
	}
	if !s.Finished() {
		t.Fatal("state not finished")
	}
}

func TestStateDependencyOrderRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := twoBlockProgram()
		s, err := NewState(p, 1+int(seed)%5)
		if err != nil {
			t.Fatal(err)
		}
		order := drive(t, s, func(q []Ready) int { return r.Intn(len(q)) })
		pos := make(map[core.Instance]int)
		for i, inst := range order {
			pos[inst] = i
		}
		// work before join, src before work.
		for c := core.Context(0); c < 4; c++ {
			w := core.Instance{Thread: 2, Ctx: c}
			if pos[w] < pos[core.Instance{Thread: 1}] {
				t.Fatalf("seed %d: %v before src", seed, w)
			}
			if pos[w] > pos[core.Instance{Thread: 3}] {
				t.Fatalf("seed %d: %v after join", seed, w)
			}
		}
	}
}

// randomDAGProgram builds a random layered DAG in one block and returns it.
func randomDAGProgram(r *rand.Rand) (*core.Program, int64) {
	p := core.NewProgram("random-dag")
	b := p.AddBlock()
	layers := 2 + r.Intn(4)
	var prev *core.Template
	id := core.ThreadID(1)
	var total int64
	for l := 0; l < layers; l++ {
		t := core.NewTemplate(id, "layer", noop)
		t.Instances = core.Context(1 + r.Intn(8))
		total += int64(t.Instances)
		id++
		b.Add(t)
		if prev != nil {
			// Choose a mapping consistent with arbitrary instance counts.
			switch r.Intn(3) {
			case 0:
				prev.Then(t.ID, core.OneToAll{})
			case 1:
				prev.Then(t.ID, core.AllToOne{Target: core.Context(r.Intn(int(t.Instances)))})
				// Other contexts of t would be sources; that is fine.
			default:
				prev.Then(t.ID, core.Scatter{Fan: (t.Instances + prev.Instances - 1) / prev.Instances})
			}
		}
		prev = t
	}
	return p, total
}

// TestStateExactlyOnceProperty: on random DAGs with random schedules and
// kernel counts, every application instance executes exactly once and the
// program terminates.
func TestStateExactlyOnceProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, total := randomDAGProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := NewState(p, 1+r.Intn(8))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := drive(t, s, func(q []Ready) int { return r.Intn(len(q)) })
		if int64(len(order)) != total {
			t.Fatalf("seed %d: executed %d instances, want %d", seed, len(order), total)
		}
	}
}

func TestTKTChunkedAssignment(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	work := s.Template(2)
	// Every context maps to exactly one kernel, kernels are contiguous and
	// non-decreasing, and ownedRange tiles the context space.
	last := KernelID(0)
	for c := core.Context(0); c < work.Instances; c++ {
		k := s.KernelOf(core.Instance{Thread: 2, Ctx: c})
		if k < last {
			t.Fatalf("kernel assignment not monotone at ctx %d", c)
		}
		if int(k) >= s.Kernels() {
			t.Fatalf("kernel %d out of range", k)
		}
		last = k
	}
	covered := core.Context(0)
	for k := 0; k < s.Kernels(); k++ {
		lo, hi := s.ownedRange(work, KernelID(k))
		if lo != covered {
			t.Fatalf("kernel %d range starts at %d, want %d", k, lo, covered)
		}
		for c := lo; c < hi; c++ {
			if got := s.KernelOf(core.Instance{Thread: 2, Ctx: c}); got != KernelID(k) {
				t.Fatalf("KernelOf(ctx %d) = %d, ownedRange says %d", c, got, k)
			}
		}
		covered = hi
	}
	if covered != work.Instances {
		t.Fatalf("ownedRange tiles %d contexts, want %d", covered, work.Instances)
	}
}

func TestTKTAffinityPinning(t *testing.T) {
	p := core.NewProgram("aff")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "pinned", noop)
	tpl.Instances = 6
	tpl.Affinity = 2
	b.Add(tpl)
	s, err := NewState(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for c := core.Context(0); c < 6; c++ {
		if k := s.KernelOf(core.Instance{Thread: 1, Ctx: c}); k != 2 {
			t.Fatalf("KernelOf(ctx %d) = %d, want 2", c, k)
		}
	}
	lo, hi := s.ownedRange(tpl, 2)
	if lo != 0 || hi != 6 {
		t.Fatalf("ownedRange(pinned, 2) = [%d,%d), want [0,6)", lo, hi)
	}
	if lo, hi := s.ownedRange(tpl, 1); lo != hi {
		t.Fatalf("ownedRange(pinned, 1) = [%d,%d), want empty", lo, hi)
	}
}

func TestServiceNaming(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	in0 := core.Instance{Thread: s.InletID(0)}
	out1 := core.Instance{Thread: s.OutletID(1)}
	if !s.IsService(in0) || !s.IsService(out1) {
		t.Fatal("service detection failed")
	}
	if s.IsService(core.Instance{Thread: 2}) {
		t.Fatal("app thread classified as service")
	}
	if got := s.ServiceName(in0); got != "inlet(0)" {
		t.Fatalf("ServiceName = %q", got)
	}
	if got := s.ServiceName(out1); got != "outlet(1)" {
		t.Fatalf("ServiceName = %q", got)
	}
	if got := s.ServiceName(core.Instance{Thread: 2}); got != "" {
		t.Fatalf("ServiceName(app) = %q, want empty", got)
	}
}

func TestStateRejectsZeroKernels(t *testing.T) {
	if _, err := NewState(twoBlockProgram(), 0); err == nil {
		t.Fatal("NewState accepted 0 kernels")
	}
}

func TestStateRejectsInvalidProgram(t *testing.T) {
	p := core.NewProgram("bad")
	if _, err := NewState(p, 1); err == nil {
		t.Fatal("NewState accepted invalid program")
	}
}

func TestDecrementPanicsOnUnderflow(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Complete(s.Start().Inst, 0) // load block 0
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ready-count underflow")
		}
	}()
	// src has ready count 0; decrementing it underflows.
	s.Decrement(core.Instance{Thread: 1})
}

func TestServiceBodyIsNoop(t *testing.T) {
	s, err := NewState(twoBlockProgram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	body := s.Body(core.Instance{Thread: s.InletID(0)})
	body(0) // must not panic
	if s.Template(s.InletID(0)) != nil {
		t.Fatal("Template returned non-nil for service thread")
	}
}

func TestTSUCapacityEnforced(t *testing.T) {
	p := core.NewProgram("big")
	tpl := core.NewTemplate(1, "loop", noop)
	tpl.Instances = 300
	p.AddBlock().Add(tpl)
	if _, err := NewStateCfg(p, 4, Config{MaxBlockInstances: 256}); err == nil {
		t.Fatal("oversized block accepted by a 256-slot TSU")
	} else if !strings.Contains(err.Error(), "split the program") {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewStateCfg(p, 4, Config{MaxBlockInstances: 300}); err != nil {
		t.Fatalf("exact-fit block rejected: %v", err)
	}
	if _, err := NewStateCfg(p, 4, Config{}); err != nil {
		t.Fatalf("unlimited TSU rejected: %v", err)
	}
}

func TestTSUCapacityPerBlockNotProgram(t *testing.T) {
	// Two blocks of 200 instances each fit a 256-slot TSU: the whole
	// point of DDM Blocks is that only one is resident at a time.
	p := core.NewProgram("split")
	a := core.NewTemplate(1, "a", noop)
	a.Instances = 200
	p.AddBlock().Add(a)
	b := core.NewTemplate(2, "b", noop)
	b.Instances = 200
	p.AddBlock().Add(b)
	s, err := NewStateCfg(p, 2, Config{MaxBlockInstances: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(t, s, nil); len(got) != 400 {
		t.Fatalf("executed %d, want 400", len(got))
	}
}

// chainMapping is a strictly increasing ctx -> ctx+1 self-arc.
type chainMapping struct{}

func (chainMapping) AppendTargets(dst []core.Context, pctx, pInst, cInst core.Context) []core.Context {
	if pctx+1 < cInst {
		dst = append(dst, pctx+1)
	}
	return dst
}
func (chainMapping) InDegree(cctx, pInst, cInst core.Context) uint32 {
	if cctx == 0 {
		return 0
	}
	return 1
}
func (chainMapping) String() string           { return "chain" }
func (chainMapping) StrictlyIncreasing() bool { return true }

// TestSelfArcChainExecutesInOrder: a template whose instances form a
// pipeline through a monotone self-arc must execute strictly in context
// order, regardless of the scheduler's whims.
func TestSelfArcChainExecutesInOrder(t *testing.T) {
	p := core.NewProgram("chain")
	tpl := core.NewTemplate(1, "stage", noop)
	tpl.Instances = 32
	tpl.Then(1, chainMapping{})
	p.AddBlock().Add(tpl)
	s, err := NewState(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := drive(t, s, func(q []Ready) int { return len(q) - 1 }) // adversarial pick
	if len(order) != 32 {
		t.Fatalf("executed %d, want 32", len(order))
	}
	for i, inst := range order {
		if inst.Ctx != core.Context(i) {
			t.Fatalf("position %d ran ctx %d", i, inst.Ctx)
		}
	}
}

// richRandomProgram builds a random multi-block program exercising every
// mapping kind, including Gather merge trees and monotone self-arcs.
func richRandomProgram(r *rand.Rand) (*core.Program, int64) {
	p := core.NewProgram("rich")
	var total int64
	id := core.ThreadID(1)
	blocks := 1 + r.Intn(3)
	for bi := 0; bi < blocks; bi++ {
		b := p.AddBlock()
		layers := 1 + r.Intn(4)
		var prev *core.Template
		for l := 0; l < layers; l++ {
			inst := core.Context(1 + r.Intn(12))
			t := core.NewTemplate(id, "t", noop)
			t.Instances = inst
			total += int64(inst)
			id++
			b.Add(t)
			if r.Intn(4) == 0 && inst > 1 {
				t.Then(t.ID, chainMapping{}) // monotone self-arc pipeline
			}
			if prev != nil {
				switch r.Intn(5) {
				case 0:
					t2 := t
					if prev.Instances == t2.Instances {
						prev.Then(t2.ID, core.OneToOne{})
					} else {
						prev.Then(t2.ID, core.OneToAll{})
					}
				case 1:
					prev.Then(t.ID, core.AllToOne{Target: core.Context(r.Intn(int(t.Instances)))})
				case 2:
					prev.Then(t.ID, core.OneToAll{})
				case 3:
					prev.Then(t.ID, core.Gather{Fan: core.Context(1 + r.Intn(3))})
				default:
					prev.Then(t.ID, core.Scatter{Fan: (t.Instances + prev.Instances - 1) / prev.Instances})
				}
			}
			prev = t
		}
	}
	return p, total
}

// TestStateExactlyOnceRichPrograms widens the exactly-once property to
// multi-block programs with the full mapping family and self-arcs, under
// adversarial (random) scheduling.
func TestStateExactlyOnceRichPrograms(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		p, total := richRandomProgram(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := NewState(p, 1+r.Intn(8))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		order := drive(t, s, func(q []Ready) int { return r.Intn(len(q)) })
		if int64(len(order)) != total {
			t.Fatalf("seed %d: executed %d instances, want %d", seed, len(order), total)
		}
		st := s.Stats()
		if st.Inlets != len(p.Blocks) || st.Outlets != len(p.Blocks) {
			t.Fatalf("seed %d: inlets/outlets = %d/%d, want %d", seed, st.Inlets, st.Outlets, len(p.Blocks))
		}
	}
}

// TestThreadIndexingAblation: with the TKT every Ready Count update is one
// probe; without it the emulator searches the Synchronization Memories
// sequentially and the probe count scales with the kernel count (§4.2's
// justification for Thread Indexing).
func TestThreadIndexingAblation(t *testing.T) {
	run := func(kernels int, linear bool) int64 {
		p := core.NewProgram("tkt")
		b := p.AddBlock()
		src := core.NewTemplate(1, "src", noop)
		work := core.NewTemplate(2, "work", noop)
		work.Instances = 256
		src.Then(2, core.Scatter{Fan: 256})
		b.Add(src)
		b.Add(work)
		s, err := NewState(p, kernels)
		if err != nil {
			t.Fatal(err)
		}
		s.SetLinearSMSearch(linear)
		drive(t, s, nil)
		return s.SearchSteps()
	}
	withTKT := run(16, false)
	without := run(16, true)
	if withTKT != 256 { // one probe per decremented instance
		t.Fatalf("TKT probes = %d, want 256", withTKT)
	}
	// Sequential search probes ~kernels/2 SMs per update on average.
	if without < 4*withTKT {
		t.Fatalf("linear search probes = %d, want ≫ %d", without, withTKT)
	}
	// And it must grow with the kernel count while the TKT stays flat.
	without4 := run(4, true)
	if without <= without4 {
		t.Fatalf("linear search did not scale with kernels: %d (16k) vs %d (4k)", without, without4)
	}
	if run(4, false) != withTKT {
		t.Fatal("TKT probe count should be independent of kernels")
	}
}

// driveInto is drive using the batch-building CompleteInto API with a
// reusable buffer, verifying it reaches the same terminal state.
func driveInto(t *testing.T, s *State) []core.Instance {
	t.Helper()
	var order []core.Instance
	queue := []Ready{s.Start()}
	var batch []Ready
	steps := 0
	for len(queue) > 0 {
		steps++
		if steps > 1_000_000 {
			t.Fatal("scheduler did not terminate")
		}
		r := queue[0]
		queue = queue[1:]
		if !s.IsService(r.Inst) {
			order = append(order, r.Inst)
		}
		var programDone bool
		batch, _, programDone = s.CompleteInto(batch[:0], r.Inst, r.Kernel)
		queue = append(queue, batch...)
		if programDone {
			if len(queue) != 0 {
				t.Fatalf("program done with %d queued instances", len(queue))
			}
			return order
		}
	}
	t.Fatal("queue drained before ProgramDone")
	return nil
}

func TestCompleteIntoMatchesComplete(t *testing.T) {
	// The allocation-free batch API must produce the same execution set
	// and the same stats as the allocating Result API.
	pa := twoBlockProgram()
	sa, err := NewState(pa, 3)
	if err != nil {
		t.Fatal(err)
	}
	orderA := drive(t, sa, nil)

	pb := twoBlockProgram()
	sb, err := NewState(pb, 3)
	if err != nil {
		t.Fatal(err)
	}
	orderB := driveInto(t, sb)

	if len(orderA) != len(orderB) {
		t.Fatalf("executed %d vs %d instances", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("order diverges at %d: %v vs %v", i, orderA[i], orderB[i])
		}
	}
	stA, stB := sa.Stats(), sb.Stats()
	if stA.Decrements != stB.Decrements || stA.Fired != stB.Fired ||
		stA.Inlets != stB.Inlets || stA.Outlets != stB.Outlets {
		t.Fatalf("stats diverge: %+v vs %+v", stA, stB)
	}
}

func TestDecrementIntoAppendsOnlyFired(t *testing.T) {
	p := core.NewProgram("dec-into")
	b := p.AddBlock()
	prod := core.NewTemplate(1, "prod", noop)
	prod.Instances = 3
	red := core.NewTemplate(2, "red", noop)
	prod.Then(2, core.AllToOne{})
	b.Add(prod)
	b.Add(red)
	s, err := NewState(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Done(core.Instance{Thread: s.InletID(0), Ctx: 0}, 0)
	target := core.Instance{Thread: 2, Ctx: 0}
	batch := make([]Ready, 0, 4)
	batch = s.DecrementInto(batch, target)
	batch = s.DecrementInto(batch, target)
	if len(batch) != 0 {
		t.Fatalf("batch holds %d entries before the count reached zero", len(batch))
	}
	batch = s.DecrementInto(batch, target)
	if len(batch) != 1 || batch[0].Inst != target {
		t.Fatalf("batch = %v, want the fired reduction instance", batch)
	}
	if batch[0].Kernel != s.KernelOf(target) {
		t.Fatalf("fired kernel = %d, want TKT owner %d", batch[0].Kernel, s.KernelOf(target))
	}
}

func TestDenseTableSparseIDsWithinBound(t *testing.T) {
	// Moderately sparse IDs (gaps, but within the 64×templates+1024
	// bound) must work: unused entries are simply empty.
	p := core.NewProgram("gaps")
	b := p.AddBlock()
	a := core.NewTemplate(7, "a", noop)
	c := core.NewTemplate(900, "c", noop)
	a.Then(900, core.OneToOne{})
	b.Add(a)
	b.Add(c)
	s, err := NewState(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Template(7) == nil || s.Template(900) == nil {
		t.Fatal("dense table lost a registered template")
	}
	if s.Template(500) != nil {
		t.Fatal("dense table invented a template for an unused ID")
	}
	if s.Template(5000) != nil {
		t.Fatal("Template out of table range must return nil")
	}
	if got := len(driveInto(t, s)); got != 2 {
		t.Fatalf("executed %d instances, want 2", got)
	}
}

func TestDenseTableRejectsPathologicallySparseIDs(t *testing.T) {
	p := core.NewProgram("sparse")
	b := p.AddBlock()
	b.Add(core.NewTemplate(1, "a", noop))
	b.Add(core.NewTemplate(1<<30, "far", noop))
	if _, err := NewState(p, 1); err == nil {
		t.Fatal("pathologically sparse thread IDs accepted")
	} else if !strings.Contains(err.Error(), "sparse") {
		t.Fatalf("err = %v, want sparse-ID message", err)
	}
}
