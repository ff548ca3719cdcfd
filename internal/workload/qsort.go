package workload

import (
	"fmt"
	"sort"

	"tflux/internal/byteview"
	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// QSORT: sort an array of uint32 keys. Following §6.1.2, the DDM version
// has an initialization DThread (one CPU fills the array — the source of
// the paper's §6.2.2 cache-transfer trade-off on TFluxSoft), a leaf phase
// where each DThread sorts one chunk, and a two-level merge tree: level 1
// merges chunk pairs, a final DThread merges the level-1 runs. The final
// merge's serial cost is comparable to the sort phase, which is exactly
// what caps QSORT's speedup in the paper (≈7.5 on 27 nodes).
//
// The size parameter is the element count (Table 1: 10K/20K/50K simulated
// and native, 3K/6K/12K on Cell — larger inputs do not fit the SPE Local
// Store, §6.3).

// qsortBaseLeaves is the leaf count at unroll 1; unrolling halves the
// number of leaves (coarser sort chunks), floored at 4 so the merge tree
// keeps its two levels.
const qsortBaseLeaves = 64

const (
	// MiBench QSORT calls libc qsort() with a function-pointer comparator,
	// which is expensive per element on an in-order core.
	qsortCyclesPerCmp   = 24 // sort: comparison call + swaps per n·log n unit
	qsortCyclesPerMerge = 6  // merge: per element moved (streaming, branch-light)
)

// QSort is the QSORT Job.
type QSort struct {
	n       int
	input   []uint32 // filled by the init DThread (parallel) / directly (sequential)
	work    []uint32 // leaf-sorted chunks
	scratch []uint32 // level-1 merged runs
	sorted  []uint32 // final output
	ref     []uint32 // the sequential output, made by the first RunSequential
	refDone bool

	leaves int // as of the last Build
}

// QSortSpec returns the Table 1 entry for QSORT.
func QSortSpec() Spec {
	return Spec{
		Name:        "QSORT",
		Source:      "MiBench",
		Description: "Array sorting",
		Sizes: func(pf Platform) ([3]int, bool) {
			if pf == Cell {
				return [3]int{3000, 6000, 12000}, true
			}
			return [3]int{10000, 20000, 50000}, true
		},
		SizeLabel: func(p int) string {
			if p%1000 == 0 {
				return fmt.Sprintf("%dK", p/1000)
			}
			return fmt.Sprintf("%d", p)
		},
		Make: func(p int) Job { return NewQSort(p) },
	}
}

// NewQSort builds a QSORT job over n keys.
func NewQSort(n int) *QSort {
	return &QSort{
		n:       n,
		input:   make([]uint32, n),
		work:    make([]uint32, n),
		scratch: make([]uint32, n),
		sorted:  make([]uint32, n),
	}
}

// Name implements Job.
func (q *QSort) Name() string { return "QSORT" }

// fill writes the deterministic input keys.
func (q *QSort) fill(dst []uint32) {
	s := uint32(0xDEADBEEF)
	for i := range dst {
		s = xorshift32(s)
		dst[i] = s
	}
}

// RunSequential implements Job: generate and quicksort the whole array.
func (q *QSort) RunSequential() {
	if q.ref == nil {
		q.ref = make([]uint32, q.n)
	}
	q.fill(q.ref)
	sort.Slice(q.ref, func(i, j int) bool { return q.ref[i] < q.ref[j] })
	q.refDone = true
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// SequentialSteps implements Job.
func (q *QSort) SequentialSteps() []hardsim.Step {
	bytes := int64(q.n) * 4
	return []hardsim.Step{
		{ // initialization pass
			Cost:    int64(q.n) * 4,
			Regions: []core.MemRegion{region("input", 0, bytes, true)},
		},
		{ // n log n quicksort over the whole array
			Cost: int64(q.n) * int64(log2ceil(q.n)) * qsortCyclesPerCmp,
			Regions: []core.MemRegion{
				region("input", 0, bytes, false),
				region("input", 0, bytes, true),
			},
		},
	}
}

// leavesFor returns the leaf count for an unroll factor: unrolling merges
// base grains, and the result is forced to an even number ≥ 4 so the
// two-level tree is well formed.
func leavesFor(unroll int) int {
	l := grains(qsortBaseLeaves, unroll)
	if l < 4 {
		l = 4
	}
	if l%2 == 1 {
		l++
	}
	return l
}

// mergeRuns merges the sorted runs delimited by bounds (len(bounds)-1
// runs over src) into dst with a binary min-heap over the run heads, so a
// k-way merge costs n·log₂k comparisons — the final DThread's cost model
// assumes exactly this.
func mergeRuns(dst, src []uint32, bounds []int) {
	type head struct {
		val uint32
		pos int // next index in src
		end int
	}
	var heap []head
	less := func(a, b head) bool { return a.val < b.val }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for r := 0; r+1 < len(bounds); r++ {
		if bounds[r] < bounds[r+1] {
			heap = append(heap, head{val: src[bounds[r]], pos: bounds[r] + 1, end: bounds[r+1]})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for out := 0; len(heap) > 0; out++ {
		h := &heap[0]
		dst[out] = h.val
		if h.pos < h.end {
			h.val = src[h.pos]
			h.pos++
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
}

// Build implements Job.
func (q *QSort) Build(kernels, unroll int) (*core.Program, error) {
	leaves := leavesFor(unroll)
	q.leaves = leaves
	n := q.n
	input, work, scratch, sorted := q.input, q.work, q.scratch, q.sorted
	bytes := int64(n) * 4

	p := core.NewProgram("qsort")
	p.AddBuffer("input", bytes)
	p.AddBuffer("work", bytes)
	p.AddBuffer("scratch", bytes)
	p.AddBuffer("sorted", bytes)
	b := p.AddBlock()

	// Phase 0: one DThread initializes the array (paper §6.2.2).
	init := core.NewTemplate(1, "init", func(core.Context) { q.fill(input) })
	init.Cost = func(core.Context) int64 { return int64(n) * 4 }
	init.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{region("input", 0, bytes, true)}
	}

	// Phase 1: each leaf sorts its chunk from input into work.
	leaf := core.NewTemplate(2, "sort", func(ctx core.Context) {
		lo, hi := chunk(n, leaves, int(ctx))
		c := work[lo:hi]
		copy(c, input[lo:hi])
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	})
	leaf.Instances = core.Context(leaves)
	leaf.Cost = func(ctx core.Context) int64 {
		lo, hi := chunk(n, leaves, int(ctx))
		m := hi - lo
		if m < 2 {
			return 8
		}
		return int64(m) * int64(log2ceil(m)) * qsortCyclesPerCmp
	}
	leaf.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := chunk(n, leaves, int(ctx))
		return []core.MemRegion{
			region("input", int64(lo)*4, int64(hi-lo)*4, false),
			region("work", int64(lo)*4, int64(hi-lo)*4, true),
		}
	}

	// Phase 2 (merge level 1): merge leaf pairs from work into scratch.
	pairs := leaves / 2
	merge1 := core.NewTemplate(3, "merge", func(ctx core.Context) {
		i := int(ctx)
		lo, _ := chunk(n, leaves, 2*i)
		mid, hi := chunk(n, leaves, 2*i+1)
		mergeRuns(scratch[lo:hi], work, []int{lo, mid, hi})
	})
	merge1.Instances = core.Context(pairs)
	merge1.Cost = func(ctx core.Context) int64 {
		i := int(ctx)
		lo, _ := chunk(n, leaves, 2*i)
		_, hi := chunk(n, leaves, 2*i+1)
		return int64(hi-lo) * qsortCyclesPerMerge
	}
	merge1.Access = func(ctx core.Context) []core.MemRegion {
		i := int(ctx)
		lo, _ := chunk(n, leaves, 2*i)
		_, hi := chunk(n, leaves, 2*i+1)
		return []core.MemRegion{
			region("work", int64(lo)*4, int64(hi-lo)*4, false),
			region("scratch", int64(lo)*4, int64(hi-lo)*4, true),
		}
	}

	// Phase 3 (merge level 2): one DThread merges the level-1 runs. This
	// serial tail is the benchmark's bottleneck, as in the paper.
	final := core.NewTemplate(4, "final", func(core.Context) {
		bounds := make([]int, pairs+1)
		for i := 0; i < pairs; i++ {
			lo, _ := chunk(n, leaves, 2*i)
			bounds[i] = lo
		}
		bounds[pairs] = n
		mergeRuns(sorted, scratch, bounds)
	})
	final.Cost = func(core.Context) int64 {
		// Heap-based k-way merge: n outputs at log2(pairs) comparisons.
		return int64(n) * int64(1+log2ceil(pairs)) * qsortCyclesPerMerge
	}
	final.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{
			region("scratch", 0, bytes, false),
			region("sorted", 0, bytes, true),
		}
	}

	init.Then(2, core.OneToAll{})
	leaf.Then(3, core.Gather{Fan: 2})
	merge1.Then(4, core.AllToOne{})
	b.Add(init)
	b.Add(leaf)
	b.Add(merge1)
	b.Add(final)
	return p, nil
}

// SharedBuffers implements Job.
func (q *QSort) SharedBuffers() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	svb.Register("input", byteview.Uint32s(q.input))
	svb.Register("work", byteview.Uint32s(q.work))
	svb.Register("scratch", byteview.Uint32s(q.scratch))
	svb.Register("sorted", byteview.Uint32s(q.sorted))
	return svb
}

// ResetOutput implements Job.
func (q *QSort) ResetOutput() {
	for i := range q.sorted {
		q.input[i], q.work[i], q.scratch[i], q.sorted[i] = 0, 0, 0, 0
	}
}

// Verify implements Job: both versions fully sort the same input, so the
// outputs are identical arrays.
func (q *QSort) Verify() error {
	if !q.refDone {
		q.RunSequential()
	}
	for i := range q.ref {
		if q.sorted[i] != q.ref[i] {
			return fmt.Errorf("QSORT: sorted[%d] = %d, want %d", i, q.sorted[i], q.ref[i])
		}
	}
	return nil
}
