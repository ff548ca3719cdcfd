package rts

import (
	"sync"
	"testing"

	"tflux/internal/core"
)

// BenchmarkQueuePop measures the steady-state cost of one pop: a driver
// publishes a batch of ready instances and the kernel drains it, so the
// queue's array is warm and the numbers isolate push and pop from growth.
func BenchmarkQueuePop(b *testing.B) {
	q := newReadyQueue()
	const batch = 64
	insts := make([]core.Instance, batch)
	for c := range insts {
		insts[c] = inst(1, core.Context(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		q.pushBatch(insts)
		for range insts {
			if _, ok, _ := q.pop(); !ok {
				b.Fatal("queue closed")
			}
		}
	}
}

// BenchmarkQueueContended runs one producer against one consumer, the
// emulator→kernel shape of the TFluxSoft hot path.
func BenchmarkQueueContended(b *testing.B) {
	q := newReadyQueue()
	var wg sync.WaitGroup
	wg.Add(1)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			q.push(inst(1, core.Context(i)))
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := q.pop(); !ok {
			b.Fatal("queue closed")
		}
	}
	wg.Wait()
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
