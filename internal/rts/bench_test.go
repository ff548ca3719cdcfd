package rts

import (
	"sync"
	"testing"

	"tflux/internal/core"
)

// fillQueue seeds a queue with items interleaved across nTmpl templates,
// nCtx contexts each, in round-robin template order (the worst case for a
// scan-based locality pick: consecutive contexts of one template sit
// nTmpl positions apart).
func fillQueue(q *readyQueue, nTmpl, nCtx int) {
	for c := 0; c < nCtx; c++ {
		for t := 1; t <= nTmpl; t++ {
			q.push(inst(core.ThreadID(t), core.Context(c)))
		}
	}
}

// BenchmarkQueuePopLocality measures steady-state pop+push cycles on a
// prefilled queue: the depth stays constant so the numbers isolate the
// cost of the pick from queue growth.
func BenchmarkQueuePopLocality(b *testing.B) {
	q := newReadyQueue(0)
	fillQueue(q, 4, 64)
	last := inst(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, ok, _ := q.pop(last)
		if !ok {
			b.Fatal("queue closed")
		}
		q.push(it)
		last = it
	}
}

// BenchmarkQueuePopLocalityHit measures the best case the locality pick
// exists for: the queue holds one template's contexts in order and every
// pop asks for the successor of the last one.
func BenchmarkQueuePopLocalityHit(b *testing.B) {
	q := newReadyQueue(0)
	const depth = 256
	for c := 0; c < depth; c++ {
		q.push(inst(1, core.Context(c)))
	}
	last := inst(1, 0)
	next := core.Context(depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, ok, _ := q.pop(last)
		if !ok {
			b.Fatal("queue closed")
		}
		q.push(inst(1, next))
		next++
		last = it
	}
}

// BenchmarkQueueContended runs one producer against one consumer, the
// emulator→kernel shape of the TFluxSoft hot path.
func BenchmarkQueueContended(b *testing.B) {
	q := newReadyQueue(0)
	var wg sync.WaitGroup
	wg.Add(1)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			q.push(inst(1, core.Context(i)))
		}
	}()
	last := core.Instance{}
	for i := 0; i < b.N; i++ {
		it, ok, _ := q.pop(last)
		if !ok {
			b.Fatal("queue closed")
		}
		last = it
	}
	wg.Wait()
}

// BenchmarkQueueSteal exercises the work-stealing fast path: trySteal from
// a prefilled victim queue, push back to keep depth constant.
func BenchmarkQueueSteal(b *testing.B) {
	q := newReadyQueue(0)
	fillQueue(q, 4, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, ok := q.trySteal()
		if !ok {
			b.Fatal("nothing to steal")
		}
		q.push(it)
	}
}

// chainProgram is a fine-grained two-stage pipeline: n instances of stage a
// feed n instances of stage b one-to-one, with near-empty bodies, so the
// run time is dominated by scheduling overhead (dispatch, queue, TSU) —
// the overhead the paper's §3.3 argues stays negligible.
func chainProgram(n core.Context) *core.Program {
	vals := make([]int64, n)
	p := core.NewProgram("chain-bench")
	blk := p.AddBlock()
	a := core.NewTemplate(1, "a", func(ctx core.Context) { vals[ctx]++ })
	a.Instances = n
	bb := core.NewTemplate(2, "b", func(ctx core.Context) { vals[ctx]++ })
	bb.Instances = n
	a.Then(2, core.OneToOne{})
	blk.Add(a)
	blk.Add(bb)
	return p
}

// BenchmarkRunFineGrain is the end-to-end small-grain workload: per-op cost
// approximates the full per-instance scheduling overhead of the runtime.
func BenchmarkRunFineGrain(b *testing.B) {
	for _, kernels := range []int{1, 4} {
		b.Run(map[int]string{1: "k1", 4: "k4"}[kernels], func(b *testing.B) {
			const n = 2048
			p := chainProgram(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, Options{Kernels: kernels}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*n), "ns/instance")
		})
	}
}

// BenchmarkRunFineGrainSteal is the same workload with work stealing on,
// covering the tryPop/popTimeout path.
func BenchmarkRunFineGrainSteal(b *testing.B) {
	const n = 2048
	p := chainProgram(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Options{Kernels: 4, Steal: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFineGrainSharded is BenchmarkRunFineGrain on the sharded TSU
// plane: no dedicated emulator, per-kernel shard stepping. Comparing its
// k4 ns/instance against the single-driver k4 number is the headline contention
// measurement of the sharding work.
func BenchmarkRunFineGrainSharded(b *testing.B) {
	for _, kernels := range []int{4, 8} {
		b.Run(map[int]string{4: "k4s4", 8: "k8s8"}[kernels], func(b *testing.B) {
			const n = 2048
			p := chainProgram(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, Options{Kernels: kernels, TSUShards: kernels}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*n), "ns/instance")
		})
	}
}

// BenchmarkRunFineGrainShardedSteal layers work stealing on the sharded
// plane (stepping kernels must keep draining inboxes while stealing).
func BenchmarkRunFineGrainShardedSteal(b *testing.B) {
	const n = 2048
	p := chainProgram(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Options{Kernels: 4, TSUShards: 4, Steal: true}); err != nil {
			b.Fatal(err)
		}
	}
}
