package rts

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
)

// TestRunShardedSum runs the map/reduce sum across kernel/shard shapes,
// including shards < kernels (non-stepper lanes) and the shards == kernels
// fast path. Every shape must produce the exact sum with the exact
// execution count, and the shard-plane stats must be populated.
func TestRunShardedSum(t *testing.T) {
	shapes := []struct{ kernels, shards int }{
		{2, 2}, {3, 2}, {4, 2}, {4, 4}, {5, 3}, {8, 4}, {8, 8},
	}
	for _, sh := range shapes {
		p, result := sumProgram(16, 100000)
		st, err := Run(p, Options{Kernels: sh.kernels, TSUShards: sh.shards})
		if err != nil {
			t.Fatalf("k=%d s=%d: %v", sh.kernels, sh.shards, err)
		}
		if *result != int64(100000)*(100000-1)/2 {
			t.Fatalf("k=%d s=%d: sum = %d", sh.kernels, sh.shards, *result)
		}
		if st.TotalExecuted() != 17 {
			t.Fatalf("k=%d s=%d: executed %d, want 17", sh.kernels, sh.shards, st.TotalExecuted())
		}
		if st.Shards != sh.shards {
			t.Fatalf("k=%d s=%d: stats report %d shards", sh.kernels, sh.shards, st.Shards)
		}
		if len(st.ShardFired) != sh.shards {
			t.Fatalf("k=%d s=%d: ShardFired has %d entries", sh.kernels, sh.shards, len(st.ShardFired))
		}
		var fired int64
		for _, n := range st.ShardFired {
			fired += n
		}
		if fired != st.TSU.Fired {
			t.Fatalf("k=%d s=%d: ShardFired sums to %d, TSU fired %d", sh.kernels, sh.shards, fired, st.TSU.Fired)
		}
		if st.TSU.Inlets != 1 || st.TSU.Outlets != 1 {
			t.Fatalf("k=%d s=%d: inlets/outlets = %d/%d", sh.kernels, sh.shards, st.TSU.Inlets, st.TSU.Outlets)
		}
	}
}

// TestRunShardedClampsToKernels: asking for more shards than kernels must
// degrade gracefully instead of erroring.
func TestRunShardedClampsToKernels(t *testing.T) {
	p, result := sumProgram(8, 10000)
	st, err := Run(p, Options{Kernels: 3, TSUShards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 {
		t.Fatalf("shards = %d, want clamp to 3 kernels", st.Shards)
	}
	if *result != int64(10000)*(10000-1)/2 {
		t.Fatalf("sum = %d", *result)
	}
}

// TestRunShardedMultiBlock covers Inlet/Outlet block transitions under the
// sharded plane: the outlet-safety invariant must let any kernel run the
// block swap.
func TestRunShardedMultiBlock(t *testing.T) {
	const n = 64
	vals := make([]int64, n)
	p := core.NewProgram("multiblock")
	b0 := p.AddBlock()
	fill := core.NewTemplate(1, "fill", func(c core.Context) { vals[c] = int64(c) })
	fill.Instances = n
	b0.Add(fill)
	b1 := p.AddBlock()
	double := core.NewTemplate(2, "double", func(c core.Context) { vals[c] *= 2 })
	double.Instances = n
	b1.Add(double)
	var sum atomic.Int64
	b2 := p.AddBlock()
	reduce := core.NewTemplate(3, "reduce", func(c core.Context) {
		for _, v := range vals {
			sum.Add(v)
		}
	})
	b2.Add(reduce)
	st, err := Run(p, Options{Kernels: 4, TSUShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1)); sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	if st.TSU.Inlets != 3 || st.TSU.Outlets != 3 {
		t.Fatalf("inlets/outlets = %d/%d, want 3/3", st.TSU.Inlets, st.TSU.Outlets)
	}
}

// TestRunShardedDependencyHappensBefore: a violated dependency panics the
// consumer body, so a pass proves the sharded decrement plane preserves
// arc ordering (including the cross-shard inbox hand-off).
func TestRunShardedDependencyHappensBefore(t *testing.T) {
	const n = 256
	stage1 := make([]atomic.Int32, n)
	stage2 := make([]atomic.Int32, n)
	p := core.NewProgram("hb")
	b := p.AddBlock()
	a := core.NewTemplate(1, "a", func(c core.Context) { stage1[c].Store(1) })
	a.Instances = n
	mid := core.NewTemplate(2, "mid", func(c core.Context) {
		if stage1[c].Load() != 1 {
			panic("mid ran before its producer")
		}
		stage2[c].Store(1)
	})
	mid.Instances = n
	var fin atomic.Int32
	last := core.NewTemplate(3, "last", func(core.Context) {
		for c := 0; c < n; c++ {
			if stage2[c].Load() != 1 {
				panic("last ran before the mids")
			}
		}
		fin.Store(1)
	})
	a.Then(2, core.OneToOne{})
	mid.Then(3, core.AllToOne{})
	b.Add(a)
	b.Add(mid)
	b.Add(last)
	if _, err := Run(p, Options{Kernels: 6, TSUShards: 3}); err != nil {
		t.Fatal(err)
	}
	if fin.Load() != 1 {
		t.Fatal("final reduction never ran")
	}
}

// TestRunShardedExactlyOnceRandomDAGs is the adversarial scheduler check
// under the sharded plane: random layered programs, random kernel/shard
// splits — every instance exactly once.
func TestRunShardedExactlyOnceRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed + 500))
		layers := 2 + r.Intn(3)
		width := 1 + r.Intn(6)
		counts := make([][]atomic.Int32, layers)
		p := core.NewProgram("rand-shard")
		b := p.AddBlock()
		var prev *core.Template
		for l := 0; l < layers; l++ {
			counts[l] = make([]atomic.Int32, width)
			cl := counts[l]
			tpl := core.NewTemplate(core.ThreadID(l+1), "layer", func(c core.Context) { cl[c].Add(1) })
			tpl.Instances = core.Context(width)
			b.Add(tpl)
			if prev != nil {
				prev.Then(tpl.ID, core.OneToAll{})
			}
			prev = tpl
		}
		kernels := 1 + int(seed)%6
		opts := Options{Kernels: kernels, TSUShards: 1 + r.Intn(kernels)}
		_ = r.Intn(3) // spent, not used: each seed's stream stays as it has always been
		if _, err := Run(p, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for l := range counts {
			for c := range counts[l] {
				if got := counts[l][c].Load(); got != 1 {
					t.Fatalf("seed %d: layer %d ctx %d executed %d times", seed, l, c, got)
				}
			}
		}
	}
}

// TestRunShardedRecoversBodyPanic: the abort path must release every
// parked stepper even with inboxes in play.
func TestRunShardedRecoversBodyPanic(t *testing.T) {
	p := core.NewProgram("boom")
	b := p.AddBlock()
	ok := core.NewTemplate(1, "ok", func(core.Context) {})
	ok.Instances = 8
	bad := core.NewTemplate(2, "bad", func(core.Context) { panic("kaboom") })
	ok.Then(2, core.AllToOne{})
	b.Add(ok)
	b.Add(bad)
	_, err := Run(p, Options{Kernels: 4, TSUShards: 4})
	if err == nil {
		t.Fatal("run succeeded despite panicking body")
	}
	if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "T2.0") {
		t.Fatalf("err = %v, want instance and panic value", err)
	}
}
