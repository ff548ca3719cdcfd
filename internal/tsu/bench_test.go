package tsu

import (
	"sync"
	"testing"

	"tflux/internal/core"
)

// reductionState builds a loaded TSU whose consumer instance waits for n
// producer completions, so Decrement can be called n times in a row on live
// Synchronization Memory without firing until the very end.
func reductionState(b *testing.B, n core.Context, kernels int) *State {
	b.Helper()
	p := core.NewProgram("dec-bench")
	blk := p.AddBlock()
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = n
	red := core.NewTemplate(2, "red", func(core.Context) {})
	prod.Then(2, core.AllToOne{})
	blk.Add(prod)
	blk.Add(red)
	s, err := NewState(p, kernels)
	if err != nil {
		b.Fatal(err)
	}
	// Load the block (the Inlet's TSU-side work).
	s.Done(core.Instance{Thread: s.InletID(0), Ctx: 0}, 0)
	return s
}

// BenchmarkDecrement measures Ready Count decrement throughput: one TKT
// lookup plus one Synchronization Memory update per op, the §4.2 hot path.
func BenchmarkDecrement(b *testing.B) {
	for _, kernels := range []int{1, 8} {
		name := map[int]string{1: "k1", 8: "k8"}[kernels]
		b.Run(name, func(b *testing.B) {
			s := reductionState(b, core.Context(b.N)+1, kernels)
			target := core.Instance{Thread: 2, Ctx: 0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Decrement(target) {
					b.Fatal("fired early")
				}
			}
		})
	}
}

// shardedReductionState is reductionState wrapped in the sharded engine,
// with the block loaded through a lane's service completion.
func shardedReductionState(b *testing.B, n core.Context, kernels, shards int) *ShardedState {
	b.Helper()
	p := core.NewProgram("shard-bench")
	blk := p.AddBlock()
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = n
	red := core.NewTemplate(2, "red", func(core.Context) {})
	prod.Then(2, core.AllToOne{})
	blk.Add(prod)
	blk.Add(red)
	s, err := NewState(p, kernels)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := NewSharded(s, shards, TUBConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ss.Lane(0).Complete(nil, core.Instance{Thread: s.InletID(0)}, nil)
	return ss
}

// BenchmarkShardedDecrement measures the sharded Post-Processing hot path
// per decrement: in-place application on the owning lane (own-shard) versus
// the batched inbox round-trip (cross-shard, drained every 64 records —
// the runtime's step-boundary shape).
func BenchmarkShardedDecrement(b *testing.B) {
	target := core.Instance{Thread: 2, Ctx: 0} // owned by kernel 0, shard 0
	b.Run("own-shard", func(b *testing.B) {
		ss := shardedReductionState(b, core.Context(b.N)+1, 8, 8)
		ln := ss.Lane(0)
		tgts := []core.Instance{target}
		var dst []Ready
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = ln.Complete(dst[:0], core.Instance{Thread: 1, Ctx: core.Context(i)}, tgts)
			if len(dst) != 0 {
				b.Fatal("fired early")
			}
		}
	})
	b.Run("cross-shard", func(b *testing.B) {
		ss := shardedReductionState(b, core.Context(b.N)+1, 8, 8)
		producer := ss.Lane(7) // shard 7: every decrement of red.0 routes to shard 0
		stepper := ss.Lane(0)
		tgts := []core.Instance{target}
		var dst []Ready
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = producer.Complete(dst[:0], core.Instance{Thread: 1, Ctx: core.Context(i)}, tgts)
			if i%64 == 63 {
				dst = stepper.Step(dst[:0])
			}
			if len(dst) != 0 {
				b.Fatal("fired early")
			}
		}
	})
}

// fanoutState builds a template with four outgoing arcs of mixed mappings,
// the shape AppendConsumers walks per completion.
func fanoutState(b *testing.B) *State {
	b.Helper()
	const n = 1024
	p := core.NewProgram("arc-bench")
	blk := p.AddBlock()
	src := core.NewTemplate(1, "src", func(core.Context) {})
	src.Instances = n
	for id := core.ThreadID(2); id <= 5; id++ {
		c := core.NewTemplate(id, "c", func(core.Context) {})
		c.Instances = n
		blk.Add(c)
	}
	src.Then(2, core.OneToOne{})
	src.Then(3, core.Scatter{Fan: 1})
	src.Then(4, core.Gather{Fan: 2})
	src.Then(5, core.OneToOne{})
	blk.Add(src)
	s, err := NewState(p, 4)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAppendConsumers measures the arc-expansion half of the
// Post-Processing Phase: mapping one completion to its consumer instances.
func BenchmarkAppendConsumers(b *testing.B) {
	s := fanoutState(b)
	var dst []core.Instance
	var ctx []core.Context
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendConsumers(dst[:0], &ctx, core.Instance{Thread: 1, Ctx: core.Context(i % 1024)})
	}
	if len(dst) == 0 {
		b.Fatal("no consumers expanded")
	}
}

// BenchmarkTUBPushDrain measures the uncontended deposit/drain cycle: 64
// pushes then one drain, the emulator-side batch shape.
func BenchmarkTUBPushDrain(b *testing.B) {
	tub := NewTUB(4, TUBConfig{})
	var recs []Completion
	rec := Completion{Inst: core.Instance{Thread: 1}, Kernel: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tub.Push(rec)
		if i%64 == 63 {
			recs = tub.Drain(recs[:0])
		}
	}
	recs = tub.Drain(recs[:0])
	_ = recs
}

// BenchmarkTUBContended runs four writer goroutines against one drainer,
// the paper's segmented try-lock scenario.
func BenchmarkTUBContended(b *testing.B) {
	const writers = 4
	tub := NewTUB(writers, TUBConfig{})
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		var recs []Completion
		for {
			recs = tub.Drain(recs[:0])
			if len(recs) == 0 {
				if !tub.Wait(stop) {
					tub.Drain(recs[:0])
					return
				}
			}
		}
	}()
	per := b.N / writers
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := Completion{Inst: core.Instance{Thread: core.ThreadID(w + 1)}, Kernel: KernelID(w)}
			for i := 0; i < per; i++ {
				tub.Push(rec)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
}
