package dist

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"tflux/internal/byteview"
	"tflux/internal/core"
)

// BenchmarkCodecExecEncodeDecode measures one Exec (4 KiB import region)
// through the binary codec: encode into a frame and decode it back. This
// is the direct successor of the retired gob envelope's micro-benchmark
// (~6.5µs/op, 13 allocs/op on the same payload).
func BenchmarkCodecExecEncodeDecode(bb *testing.B) {
	region := make([]byte, 4<<10)
	for i := range region {
		region[i] = byte(i)
	}
	execs := []Exec{{
		Inst:   core.Instance{Thread: 3, Ctx: 17},
		Kernel: 1,
		Imports: []RegionData{
			{Buffer: "A", Offset: 512, Data: region, Ver: 4, Size: int64(len(region))},
		},
	}}
	encode := func() []byte {
		b := make([]byte, frameHeader, frameHeader+len(region)+64)
		b = appendUvarint(b, uint64(len(execs)))
		for i := range execs {
			b = appendExec(b, &execs[i])
		}
		wire, err := finishFrame(b, ftExecBatch)
		if err != nil {
			bb.Fatal(err)
		}
		return wire
	}
	bb.SetBytes(int64(len(encode())))
	bb.ReportAllocs()
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, readChunk)
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		wire := encode()
		rd.Reset(wire)
		br.Reset(rd)
		f, err := readFrame(br)
		if err != nil {
			bb.Fatal(err)
		}
		if len(f.execs) != 1 || len(f.execs[0].Imports[0].Data) != len(region) {
			bb.Fatal("bad decode")
		}
	}
}

// iterMMult builds an iterative MMULT-shaped workload: `iters` DDM
// Blocks, each recomputing C = A×B in row-block DThreads. The operand
// matrices A and B never change between iterations, so their import
// regions are exactly the steady-state traffic the worker-side region
// cache exists to eliminate; C is exported every iteration and must be
// re-shipped. n is the matrix dimension, rowsPer the rows per DThread.
func iterMMult(n, rowsPer, iters int) func() (*core.Program, *core.SharedVariableBuffer) {
	return func() (*core.Program, *core.SharedVariableBuffer) {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		c := make([]float64, n*n)
		for i := range a {
			a[i] = float64(i%7) + 1
			b[i] = float64(i%5) + 1
		}
		p := core.NewProgram("itermmult")
		p.AddBuffer("A", int64(n*n)*8)
		p.AddBuffer("B", int64(n*n)*8)
		p.AddBuffer("C", int64(n*n)*8)
		rows := n / rowsPer
		for it := 0; it < iters; it++ {
			blk := p.AddBlock()
			tpl := core.NewTemplate(core.ThreadID(it+1), fmt.Sprintf("mm%d", it), func(ctx core.Context) {
				r0 := int(ctx) * rowsPer
				for r := r0; r < r0+rowsPer; r++ {
					for col := 0; col < n; col++ {
						var s float64
						for k := 0; k < n; k++ {
							s += a[r*n+k] * b[k*n+col]
						}
						c[r*n+col] = s
					}
				}
			})
			tpl.Instances = core.Context(rows)
			tpl.Access = func(ctx core.Context) []core.MemRegion {
				off := int64(ctx) * int64(rowsPer) * int64(n) * 8
				sz := int64(rowsPer) * int64(n) * 8
				return []core.MemRegion{
					{Buffer: "A", Offset: off, Size: sz},
					{Buffer: "B", Offset: 0, Size: int64(n*n) * 8},
					{Buffer: "C", Offset: off, Size: sz, Write: true},
				}
			}
			blk.Add(tpl)
		}
		svb := core.NewSharedVariableBuffer()
		svb.Register("A", byteview.Float64s(a))
		svb.Register("B", byteview.Float64s(b))
		svb.Register("C", byteview.Float64s(c))
		return p, svb
	}
}

// BenchmarkDistMMultIterative is the end-to-end data-plane benchmark: an
// iterative MMULT over RunLocal with 2 nodes × 2 kernels. Wire cost —
// codec, per-message overhead, re-shipped operands — dominates the tiny
// bodies, so this measures the protocol, not the FPU.
func BenchmarkDistMMultIterative(bb *testing.B) {
	build := iterMMult(64, 8, 6)
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		st, _, err := RunLocal(build, 2, 2)
		if err != nil {
			bb.Fatal(err)
		}
		if i == 0 {
			bb.ReportMetric(float64(st.BytesOut), "wire-bytes-out")
			bb.ReportMetric(float64(st.Messages), "messages")
		}
	}
}

// BenchmarkDistDispatchSmall measures per-message dispatch overhead: many
// tiny DThreads with 8-byte regions over a localhost pair. Batching and
// pipelining should collapse the per-instance round trips.
func BenchmarkDistDispatchSmall(bb *testing.B) {
	const insts = 256
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		out := make([]uint64, insts)
		p := core.NewProgram("small")
		p.AddBuffer("out", insts*8)
		tpl := core.NewTemplate(1, "w", func(ctx core.Context) { out[ctx] = uint64(ctx) })
		tpl.Instances = insts
		tpl.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "out", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		}
		p.AddBlock().Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("out", byteview.Uint64s(out))
		return p, svb
	}
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		if _, _, err := RunLocal(build, 2, 2); err != nil {
			bb.Fatal(err)
		}
	}
}
