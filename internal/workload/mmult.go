package workload

import (
	"fmt"

	"tflux/internal/byteview"
	"tflux/internal/core"
	"tflux/internal/hardsim"
)

// MMULT: dense n×n float64 matrix multiply C = A×B, parallelized over row
// blocks. It is embarrassingly parallel but, on TFluxHard, limited by
// coherency misses on the shared B matrix (§6.1.2) — every worker streams
// all of B, which the MESI model charges. On the Cell substrate A/B/C row
// panels are DMA-staged; panels above the Local Store threshold stream
// through the double-buffered window, as real SPE matmuls do.
//
// The size parameter is n (Table 1: 64/128/256 simulated,
// 64/256/1024 native and Cell).

// mmultCyclesPerMAC models one multiply-accumulate plus loop overhead on
// the simulated in-order core.
const mmultCyclesPerMAC = 6

// MMult is the MMULT Job.
type MMult struct {
	n       int
	a, b    []float64
	cRef    []float64
	cPar    []float64
	refDone bool
}

// MMultSpec returns the Table 1 entry for MMULT.
func MMultSpec() Spec {
	return Spec{
		Name:        "MMULT",
		Source:      "kernel",
		Description: "Matrix multiply",
		Sizes: func(pf Platform) ([3]int, bool) {
			if pf == Simulated {
				return [3]int{64, 128, 256}, true
			}
			return [3]int{64, 256, 1024}, true
		},
		SizeLabel: func(p int) string { return fmt.Sprintf("%dx%d", p, p) },
		Make:      func(p int) Job { return NewMMult(p) },
	}
}

// NewMMult builds an MMULT job with deterministic inputs.
func NewMMult(n int) *MMult {
	m := &MMult{
		n:    n,
		a:    make([]float64, n*n),
		b:    make([]float64, n*n),
		cRef: make([]float64, n*n),
		cPar: make([]float64, n*n),
	}
	s := uint32(0x9E3779B9)
	for i := range m.a {
		s = xorshift32(s)
		m.a[i] = float64(s%1000) / 999
		s = xorshift32(s)
		m.b[i] = float64(s%1000) / 999
	}
	return m
}

// Name implements Job.
func (m *MMult) Name() string { return "MMULT" }

// multiplyRows computes rows [lo, hi) of dst = A×B with the classic i-k-j
// loop (row-major friendly). Sequential baseline and DThreads share it.
func (m *MMult) multiplyRows(dst []float64, lo, hi int) {
	n := m.n
	for i := lo; i < hi; i++ {
		ci := dst[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := m.a[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := ai[k]
			bk := m.b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// RunSequential implements Job.
func (m *MMult) RunSequential() {
	m.multiplyRows(m.cRef, 0, m.n)
	m.refDone = true
}

// rowRegions describes the memory a row-block [lo,hi) touches: its A and C
// panels plus all of B.
func (m *MMult) rowRegions(lo, hi int) []core.MemRegion {
	rowBytes := int64(m.n) * 8
	return []core.MemRegion{
		region("A", int64(lo)*rowBytes, int64(hi-lo)*rowBytes, false),
		region("B", 0, int64(m.n)*rowBytes, false),
		region("C", int64(lo)*rowBytes, int64(hi-lo)*rowBytes, true),
	}
}

// rowCost is the compute model for rows [lo,hi).
func (m *MMult) rowCost(lo, hi int) int64 {
	return int64(hi-lo) * int64(m.n) * int64(m.n) * mmultCyclesPerMAC
}

// SequentialSteps implements Job: the sequential multiply in 16-row bands,
// each touching its panels and all of B.
func (m *MMult) SequentialSteps() []hardsim.Step {
	var steps []hardsim.Step
	for lo := 0; lo < m.n; lo += 16 {
		hi := lo + 16
		if hi > m.n {
			hi = m.n
		}
		steps = append(steps, hardsim.Step{Cost: m.rowCost(lo, hi), Regions: m.rowRegions(lo, hi)})
	}
	return steps
}

// Build implements Job: one loop DThread over row blocks of `unroll` rows,
// plus a completion sink that publishes the result (the reduction point
// every consumer of C would depend on).
func (m *MMult) Build(kernels, unroll int) (*core.Program, error) {
	inst := grains(m.n, unroll)
	n := m.n
	cPar := m.cPar

	p := core.NewProgram("mmult")
	rowBytes := int64(n) * 8
	p.AddBuffer("A", int64(n)*rowBytes)
	p.AddBuffer("B", int64(n)*rowBytes)
	p.AddBuffer("C", int64(n)*rowBytes)
	blk := p.AddBlock()

	work := core.NewTemplate(1, "rows", func(ctx core.Context) {
		lo, hi := chunk(n, inst, int(ctx))
		m.multiplyRows(cPar, lo, hi)
	})
	work.Instances = core.Context(inst)
	work.Cost = func(ctx core.Context) int64 {
		lo, hi := chunk(n, inst, int(ctx))
		return m.rowCost(lo, hi)
	}
	work.Access = func(ctx core.Context) []core.MemRegion {
		lo, hi := chunk(n, inst, int(ctx))
		return m.rowRegions(lo, hi)
	}

	sink := core.NewTemplate(2, "done", func(core.Context) {})
	sink.Cost = func(core.Context) int64 { return 64 }
	work.Then(2, core.AllToOne{})
	blk.Add(work)
	blk.Add(sink)
	return p, nil
}

// SharedBuffers implements Job.
func (m *MMult) SharedBuffers() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	svb.Register("A", byteview.Float64s(m.a))
	svb.Register("B", byteview.Float64s(m.b))
	svb.Register("C", byteview.Float64s(m.cPar))
	return svb
}

// ResetOutput implements Job.
func (m *MMult) ResetOutput() {
	for i := range m.cPar {
		m.cPar[i] = 0
	}
}

// Verify implements Job: every C element is produced by one DThread
// running the sequential inner loop, so the match is bitwise.
func (m *MMult) Verify() error {
	if !m.refDone {
		m.RunSequential()
	}
	for i := range m.cRef {
		if m.cPar[i] != m.cRef[i] {
			return fmt.Errorf("MMULT: C[%d,%d] = %v, want %v", i/m.n, i%m.n, m.cPar[i], m.cRef[i])
		}
	}
	return nil
}
