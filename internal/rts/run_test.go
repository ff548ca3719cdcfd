package rts

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// sumProgram builds a map+reduce: n workers each add their partial range
// into a slot, one reducer sums the slots.
func sumProgram(n core.Context, total int) (*core.Program, *int64) {
	parts := make([]int64, n)
	result := new(int64)
	p := core.NewProgram("sum")
	b := p.AddBlock()
	work := core.NewTemplate(1, "work", func(ctx core.Context) {
		lo := int(ctx) * total / int(n)
		hi := (int(ctx) + 1) * total / int(n)
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		parts[ctx] = s
	})
	work.Instances = n
	reduce := core.NewTemplate(2, "reduce", func(core.Context) {
		var s int64
		for _, v := range parts {
			s += v
		}
		*result = s
	})
	work.Then(2, core.AllToOne{})
	b.Add(work)
	b.Add(reduce)
	return p, result
}

func TestRunSumAcrossKernelCounts(t *testing.T) {
	const total = 100000
	want := int64(total) * (total - 1) / 2
	for _, kernels := range []int{1, 2, 3, 4, 8} {
		p, result := sumProgram(16, total)
		st, err := Run(p, Options{Kernels: kernels})
		if err != nil {
			t.Fatalf("kernels=%d: %v", kernels, err)
		}
		if *result != want {
			t.Fatalf("kernels=%d: sum = %d, want %d", kernels, *result, want)
		}
		if got := st.TotalExecuted(); got != 17 {
			t.Fatalf("kernels=%d: executed %d instances, want 17", kernels, got)
		}
		if st.TSU.Inlets != 1 || st.TSU.Outlets != 1 {
			t.Fatalf("kernels=%d: inlets/outlets = %d/%d", kernels, st.TSU.Inlets, st.TSU.Outlets)
		}
	}
}

func TestRunMultiBlockDataFlow(t *testing.T) {
	// Block 0 writes a value; Block 1 multiplies it. Cross-block ordering
	// must be enforced by the Outlet/Inlet chain, with no explicit arc.
	var x int64
	p := core.NewProgram("mb")
	b0 := p.AddBlock()
	b0.Add(core.NewTemplate(1, "produce", func(core.Context) { x = 21 }))
	b1 := p.AddBlock()
	b1.Add(core.NewTemplate(2, "consume", func(core.Context) { x *= 2 }))
	st, err := Run(p, Options{Kernels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if x != 42 {
		t.Fatalf("x = %d, want 42", x)
	}
	if st.TSU.Inlets != 2 || st.TSU.Outlets != 2 {
		t.Fatalf("inlets/outlets = %d/%d, want 2/2", st.TSU.Inlets, st.TSU.Outlets)
	}
}

func TestRunDependencyHappensBefore(t *testing.T) {
	// A chain a -> b -> c where each stage verifies the previous one ran.
	// Under -race this also proves the runtime publishes writes across
	// kernels (the TUB/queue handoff creates the happens-before edge).
	const n = 64
	vals := make([]int64, n)
	p := core.NewProgram("chain")
	b := p.AddBlock()
	a := core.NewTemplate(1, "a", func(ctx core.Context) { vals[ctx] = 1 })
	a.Instances = n
	bb := core.NewTemplate(2, "b", func(ctx core.Context) {
		if vals[ctx] != 1 {
			panic("b ran before a")
		}
		vals[ctx] = 2
	})
	bb.Instances = n
	c := core.NewTemplate(3, "c", func(core.Context) {
		for i := range vals {
			if vals[i] != 2 {
				panic("c ran before all b")
			}
		}
	})
	a.Then(2, core.OneToOne{})
	bb.Then(3, core.AllToOne{})
	b.Add(a)
	b.Add(bb)
	b.Add(c)
	if _, err := Run(p, Options{Kernels: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExactlyOnceRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		layers := 2 + r.Intn(4)
		var counts []*[]atomic.Int32
		p := core.NewProgram("rand")
		b := p.AddBlock()
		var prev *core.Template
		var total int64
		for l := 0; l < layers; l++ {
			inst := core.Context(1 + r.Intn(10))
			total += int64(inst)
			cnt := make([]atomic.Int32, inst)
			counts = append(counts, &cnt)
			tpl := core.NewTemplate(core.ThreadID(l+1), "layer", func(ctx core.Context) {
				cnt[ctx].Add(1)
			})
			tpl.Instances = inst
			b.Add(tpl)
			if prev != nil {
				prev.Then(tpl.ID, core.OneToAll{})
			}
			prev = tpl
		}
		st, err := Run(p, Options{Kernels: 1 + int(seed%6)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.TotalExecuted() != total {
			t.Fatalf("seed %d: executed %d, want %d", seed, st.TotalExecuted(), total)
		}
		for l, cnt := range counts {
			for i := range *cnt {
				if n := (*cnt)[i].Load(); n != 1 {
					t.Fatalf("seed %d: layer %d ctx %d ran %d times", seed, l, i, n)
				}
			}
		}
	}
}

func TestRunRecoversBodyPanic(t *testing.T) {
	p := core.NewProgram("boom")
	b := p.AddBlock()
	ok := core.NewTemplate(1, "ok", func(core.Context) {})
	ok.Instances = 8
	bad := core.NewTemplate(2, "bad", func(core.Context) { panic("kaboom") })
	ok.Then(2, core.AllToOne{})
	b.Add(ok)
	b.Add(bad)
	_, err := Run(p, Options{Kernels: 3})
	if err == nil {
		t.Fatal("run succeeded despite panicking body")
	}
	if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "T2.0") {
		t.Fatalf("err = %v, want instance and panic value", err)
	}
}

func TestRunInvalidProgram(t *testing.T) {
	if _, err := Run(core.NewProgram("empty"), Options{Kernels: 1}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestRunDefaultsToOneKernel(t *testing.T) {
	p, result := sumProgram(4, 1000)
	st, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernels != 1 {
		t.Fatalf("kernels = %d, want 1", st.Kernels)
	}
	if *result != 499500 {
		t.Fatalf("sum = %d", *result)
	}
}

func TestRunSingleLockTUBAblation(t *testing.T) {
	p, result := sumProgram(32, 50000)
	_, err := Run(p, Options{Kernels: 4, TUB: tsu.TUBConfig{SingleLock: true, SegmentCap: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if *result != int64(50000)*(50000-1)/2 {
		t.Fatalf("sum = %d", *result)
	}
}

func TestRunAffinityRespected(t *testing.T) {
	var ran atomic.Int64
	p := core.NewProgram("aff")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "pinned", func(core.Context) { ran.Add(1) })
	tpl.Instances = 10
	tpl.Affinity = 1
	b.Add(tpl)
	st, err := Run(p, Options{Kernels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d, want 10", ran.Load())
	}
	if st.Executed[1] != 10 {
		t.Fatalf("kernel 1 executed %d, want 10 (per-kernel: %v)", st.Executed[1], st.Executed)
	}
	if st.Executed[0] != 0 || st.Executed[2] != 0 {
		t.Fatalf("unpinned kernels executed app threads: %v", st.Executed)
	}
}

func TestRunWithWorkStealing(t *testing.T) {
	// A pinned template floods one kernel; with stealing on, the other
	// kernels execute most of its work anyway.
	var ran, sink atomic.Int64
	p := core.NewProgram("steal")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "flood", func(core.Context) {
		s := 1.0
		for i := 0; i < 300_000; i++ {
			s += 1 / s
		}
		sink.Store(int64(s))
		ran.Add(1)
	})
	tpl.Instances = 64
	tpl.Affinity = 0
	b.Add(tpl)
	st, err := Run(p, Options{Kernels: 4, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran %d, want 64", ran.Load())
	}
	var others int64
	for k := 1; k < 4; k++ {
		others += st.Executed[k]
	}
	if others == 0 {
		t.Fatalf("no work stolen: per-kernel %v", st.Executed)
	}
	if st.TotalExecuted() != 64 {
		t.Fatalf("executed = %d", st.TotalExecuted())
	}
}

func TestRunStealingExactlyOnceWithOwnerBookkeeping(t *testing.T) {
	// Deliberately skewed affinity: every instance is owned by kernel 0,
	// so with stealing on, kernels 1..3 execute most of the work. Each
	// stolen instance must execute exactly once, and the TSU's readiness
	// bookkeeping (Fired per kernel, via the owner's Synchronization
	// Memory) must stay entirely with the owner regardless of which CPU
	// ran the body.
	const n = 48
	var ran [n]atomic.Int32
	var sink atomic.Int64
	p := core.NewProgram("steal-book")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "skew", func(ctx core.Context) {
		s := 1.0
		for i := 0; i < 200_000; i++ {
			s += 1 / s
		}
		sink.Store(int64(s))
		ran[ctx].Add(1)
	})
	tpl.Instances = n
	tpl.Affinity = 0
	b.Add(tpl)
	st, err := Run(p, Options{Kernels: 4, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	for c := range ran {
		if got := ran[c].Load(); got != 1 {
			t.Fatalf("ctx %d executed %d times, want exactly once", c, got)
		}
	}
	if st.TotalExecuted() != n {
		t.Fatalf("executed %d, want %d", st.TotalExecuted(), n)
	}
	var stolen int64
	for k := 1; k < 4; k++ {
		stolen += st.Executed[k]
	}
	if stolen == 0 {
		t.Fatalf("no work stolen from the skewed owner: per-kernel %v", st.Executed)
	}
	// Readiness bookkeeping: all n application firings credited to the
	// owner (kernel 0), none to the thieves.
	if st.TSU.PerKernel[0] != n {
		t.Fatalf("owner fired count = %d, want %d (bookkeeping must stay with the owner)", st.TSU.PerKernel[0], n)
	}
	for k := 1; k < 4; k++ {
		if st.TSU.PerKernel[k] != 0 {
			t.Fatalf("thief kernel %d credited with %d firings, want 0: %v", k, st.TSU.PerKernel[k], st.TSU.PerKernel)
		}
	}
}

func TestRunStealingCorrectAcrossWorkloadShapes(t *testing.T) {
	for _, kernels := range []int{1, 3, 6} {
		p, result := sumProgram(32, 60000)
		if _, err := Run(p, Options{Kernels: kernels, Steal: true}); err != nil {
			t.Fatalf("kernels=%d: %v", kernels, err)
		}
		if *result != int64(60000)*(60000-1)/2 {
			t.Fatalf("kernels=%d: sum = %d", kernels, *result)
		}
	}
}
