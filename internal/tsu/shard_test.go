package tsu

import (
	"math/rand"
	"sort"
	"testing"

	"tflux/internal/core"
)

// driveSharded executes a program to completion through the sharded engine
// from a single goroutine: every Ready instance is completed on its owning
// kernel's Lane, and the stepper lanes drain their inboxes whenever the
// ready pool runs dry (and after every completion under pick-randomized
// schedules, via the pool refill below). Serial driving is legitimate — the
// Lane API only requires that each lane is used by one goroutine at a time,
// which a single goroutine trivially satisfies — and it makes the engine's
// behaviour deterministic enough to compare against the single-driver
// oracle.
func driveSharded(t *testing.T, ss *ShardedState, pick func(q []Ready) int) []core.Instance {
	t.Helper()
	s := ss.State()
	var order []core.Instance
	queue := []Ready{s.Start()}
	seen := make(map[core.Instance]bool)
	var targets []core.Instance
	var ctx []core.Context
	stepAll := func() bool {
		grew := false
		for sh := 0; sh < ss.Shards(); sh++ {
			out := ss.Lane(ss.Stepper(sh)).Step(nil)
			if len(out) > 0 {
				grew = true
				queue = append(queue, out...)
			}
		}
		return grew
	}
	for steps := 0; ; steps++ {
		if steps > 2_000_000 {
			t.Fatal("sharded scheduler did not terminate")
		}
		if len(queue) == 0 {
			if !stepAll() {
				t.Fatal("ready pool drained before ProgramDone")
			}
			continue
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
		ln := ss.Lane(r.Kernel)
		targets = s.AppendConsumers(targets[:0], &ctx, r.Inst)
		ready, done := ln.Complete(nil, r.Inst, targets)
		queue = append(queue, ready...)
		if done {
			if stepAll() {
				t.Fatal("program done with pending inbox work")
			}
			if len(queue) != 0 {
				t.Fatalf("program done with %d queued instances", len(queue))
			}
			return order
		}
	}
}

func sortedInstances(in []core.Instance) []core.Instance {
	out := append([]core.Instance(nil), in...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Thread != out[b].Thread {
			return out[a].Thread < out[b].Thread
		}
		return out[a].Ctx < out[b].Ctx
	})
	return out
}

// TestShardedMatchesOracleRichPrograms is the randomized equivalence
// check: the sharded engine must execute exactly the set of instances the
// single-driver oracle executes, with identical decrement/fire/probe
// accounting, across random kernel/shard counts and both SM search modes
// (satellite: sharded SM agrees with the unsharded oracle on randomized
// programs).
func TestShardedMatchesOracleRichPrograms(t *testing.T) {
	for seed := int64(0); seed < 90; seed++ {
		r := rand.New(rand.NewSource(seed + 4000))
		pa, total := richRandomProgram(rand.New(rand.NewSource(seed + 4000)))
		pb, _ := richRandomProgram(rand.New(rand.NewSource(seed + 4000)))
		_ = r.Int63() // keep r independent of the program stream
		kernels := 1 + r.Intn(8)
		shards := 1 + r.Intn(kernels)
		_ = r.Intn(3) // spent, not used: keeps each seed's search-mode draw where it has always been
		linear := r.Intn(2) == 0

		oracle, err := NewState(pa, kernels)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle.SetLinearSMSearch(linear)
		sched := rand.New(rand.NewSource(seed))
		want := drive(t, oracle, func(q []Ready) int { return sched.Intn(len(q)) })

		s, err := NewState(pb, kernels)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s.SetLinearSMSearch(linear)
		ss, err := NewSharded(s, shards, TUBConfig{}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sched = rand.New(rand.NewSource(seed))
		got := driveSharded(t, ss, func(q []Ready) int { return sched.Intn(len(q)) })

		if int64(len(got)) != total || len(got) != len(want) {
			t.Fatalf("seed %d (k=%d s=%d): sharded executed %d instances, oracle %d, program has %d",
				seed, kernels, shards, len(got), len(want), total)
		}
		ws, gs := sortedInstances(want), sortedInstances(got)
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("seed %d: execution sets diverge at %d: oracle %v, sharded %v", seed, i, ws[i], gs[i])
			}
		}
		a, b := oracle.Stats(), ss.Stats()
		if a.Decrements != b.Decrements || a.Fired != b.Fired || a.Inlets != b.Inlets || a.Outlets != b.Outlets {
			t.Fatalf("seed %d: stats diverge: oracle %+v, sharded %+v", seed, a, b)
		}
		for k := range a.PerKernel {
			if a.PerKernel[k] != b.PerKernel[k] {
				t.Fatalf("seed %d: per-kernel fires diverge: oracle %v, sharded %v", seed, a.PerKernel, b.PerKernel)
			}
		}
		if oracle.SearchSteps() != ss.SearchSteps() {
			t.Fatalf("seed %d (linear=%v): search steps diverge: oracle %d, sharded %d",
				seed, linear, oracle.SearchSteps(), ss.SearchSteps())
		}
		if !s.Finished() {
			t.Fatalf("seed %d: sharded state not finished", seed)
		}
		fired := ss.ShardFired()
		var sum int64
		for _, n := range fired {
			sum += n
		}
		if sum != b.Fired {
			t.Fatalf("seed %d: ShardFired sums to %d, want %d", seed, sum, b.Fired)
		}
		// With one kernel the sole lane steps the sole shard, so nothing
		// can route through an inbox. (With kernels > shards, non-stepper
		// lanes route even same-shard decrements — that traffic is real.)
		if kernels == 1 && ss.CrossShardDecrements() != 0 {
			t.Fatalf("seed %d: single kernel reported %d cross-shard decrements", seed, ss.CrossShardDecrements())
		}
	}
}

// TestShardedCrossShardTraffic pins down that a fan-in crossing shard
// ownership actually routes through the inboxes (and is counted), rather
// than being applied in place.
func TestShardedCrossShardTraffic(t *testing.T) {
	p := core.NewProgram("cross")
	b := p.AddBlock()
	src := core.NewTemplate(1, "src", noop)
	src.Instances = 8
	join := core.NewTemplate(2, "join", noop)
	src.Then(2, core.AllToOne{})
	b.Add(src)
	b.Add(join)
	s, err := NewState(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSharded(s, 4, TUBConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(driveSharded(t, ss, nil)); got != 9 {
		t.Fatalf("executed %d instances, want 9", got)
	}
	// join.0 is owned by kernel 0 / shard 0; the 6 src completions on
	// kernels 1..3 must ship their decrement cross-shard.
	if got := ss.CrossShardDecrements(); got != 6 {
		t.Fatalf("cross-shard decrements = %d, want 6", got)
	}
	if st := ss.InboxStats(); st.Pushes == 0 || st.Blocked != 0 {
		t.Fatalf("inbox stats = %+v, want pushes > 0 and no blocking", st)
	}
}

// TestShardedFewerShardsThanKernels: non-stepper lanes own no shard and
// must route every decrement; the run still completes and the kick
// callback fires for the right shards.
func TestShardedFewerShardsThanKernels(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	notified := make(map[int]int)
	ss, err := NewSharded(s, 2, TUBConfig{}, func(sh int) { notified[sh]++ })
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		ln := ss.Lane(KernelID(k))
		if stepper := ss.Stepper(ss.ShardOf(KernelID(k))) == KernelID(k); stepper != (ln.Shard() >= 0) {
			t.Fatalf("kernel %d: stepper=%v but Shard()=%d", k, stepper, ln.Shard())
		}
	}
	if got := len(driveSharded(t, ss, nil)); got != 8 {
		t.Fatalf("executed %d instances, want 8", got)
	}
	for sh := range notified {
		if sh < 0 || sh >= 2 {
			t.Fatalf("notify fired for invalid shard %d", sh)
		}
	}
}

// TestShardedSparseIDs: the dense-table sparse-ID guard composes with
// sharding — gappy thread IDs within the bound run sharded, too.
func TestShardedSparseIDs(t *testing.T) {
	p := core.NewProgram("gaps")
	b := p.AddBlock()
	a := core.NewTemplate(7, "a", noop)
	a.Instances = 6
	c := core.NewTemplate(900, "c", noop)
	c.Instances = 6
	a.Then(900, core.OneToOne{})
	b.Add(a)
	b.Add(c)
	s, err := NewState(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewSharded(s, 3, TUBConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(driveSharded(t, ss, nil)); got != 12 {
		t.Fatalf("executed %d instances, want 12", got)
	}
}

func TestNewShardedRejects(t *testing.T) {
	p := twoBlockProgram()
	s, err := NewState(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(s, 0, TUBConfig{}, nil); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewSharded(s, 4, TUBConfig{}, nil); err == nil {
		t.Fatal("more shards than kernels accepted")
	}
	// A state that already started its first block must be rejected.
	s.Done(core.Instance{Thread: s.InletID(0)}, 0)
	if _, err := NewSharded(s, 2, TUBConfig{}, nil); err == nil {
		t.Fatal("started state accepted")
	}
}

// TestTUBUnboundedNeverBlocks: an unbounded TUB accepts pushes far past
// every segment's capacity without blocking — the property the sharded
// inboxes rely on for deadlock freedom.
func TestTUBUnboundedNeverBlocks(t *testing.T) {
	tub := NewTUB(2, TUBConfig{Segments: 1, SegmentCap: 1, Unbounded: true})
	for i := 0; i < 64; i++ {
		tub.Push(Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}})
	}
	got := tub.Drain(nil)
	if len(got) != 64 {
		t.Fatalf("drained %d records, want 64", len(got))
	}
	if st := tub.Stats(); st.Blocked != 0 {
		t.Fatalf("unbounded TUB blocked %d times", st.Blocked)
	}
}
