package ddmlint

import (
	"testing"

	"tflux/internal/core"
)

// oracleAccepts is an independent brute-force check of the structural
// graph properties ddmlint proves: it literally simulates the TSU's
// dataflow firing over the instance graph and accepts iff every instance
// fires exactly as its declared Ready Count predicts — no out-of-range
// targets, no count driven negative, no instance left unfired. It shares
// no code with the linter (no CSR, no Kahn, no aggregation), so agreement
// is meaningful.
func oracleAccepts(p *core.Program) bool {
	for _, b := range p.Blocks {
		if !oracleBlock(b) {
			return false
		}
	}
	return true
}

func oracleBlock(b *core.Block) bool {
	type inst struct {
		t   *core.Template
		ctx core.Context
	}
	cnt := make(map[inst]int64)
	for _, t := range b.Templates {
		for ctx, d := range core.InDegrees(b, t) {
			cnt[inst{t, core.Context(ctx)}] = int64(d)
		}
	}
	fired := make(map[inst]bool)
	var queue []inst
	for i, c := range cnt {
		if c == 0 {
			queue = append(queue, i)
		}
	}
	var scratch []core.Context
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if fired[i] {
			return false // double-enabled
		}
		fired[i] = true
		for _, a := range i.t.Arcs {
			c := b.Template(a.To)
			scratch = a.Map.AppendTargets(scratch[:0], i.ctx, i.t.Instances, c.Instances)
			for _, cctx := range scratch {
				if cctx >= c.Instances {
					return false // TSU would index out of range
				}
				j := inst{c, cctx}
				cnt[j]--
				if cnt[j] < 0 {
					return false // tsu.State panics on exactly this
				}
				if cnt[j] == 0 {
					queue = append(queue, j)
				}
			}
		}
	}
	return len(fired) == len(cnt) // unfired instances: deadlock / starvation
}

// structuralGraphFindings counts the findings the oracle can witness
// (ready counts, dead instances, cycles, bad targets). Memory findings
// are out of scope here; FuzzRaceOracle holds the race pass to its own
// brute-force reference.
func structuralGraphFindings(r *Report) int {
	n := 0
	for i := range r.Findings {
		switch r.Findings[i].Kind {
		case KindReadyCount, KindDeadInstance, KindInstanceCycle, KindBadTarget:
			n++
		}
	}
	return n
}

// fuzzMappings is the generator pool: the standard mappings plus the
// lying ones from lint_test.go. Index comes from the fuzz input.
func fuzzMapping(sel, param byte) core.Mapping {
	switch sel % 10 {
	case 0:
		return core.OneToOne{}
	case 1:
		return core.AllToOne{Target: core.Context(param % 8)}
	case 2:
		return core.OneToAll{}
	case 3:
		return core.Gather{Fan: core.Context(param%3 + 1)}
	case 4:
		return core.Scatter{Fan: core.Context(param%3 + 1)}
	case 5:
		return core.Const{Target: core.Context(param % 8)}
	case 6:
		return overDeliver{}
	case 7:
		return underDeliver{}
	case 8:
		return fakeInc{}
	default:
		return wildTarget{}
	}
}

// buildFuzzProgram decodes a byte string into a program: the first byte
// sets the template count, then per template one byte of instance count
// and two (selector, param) byte pairs of arcs. Arcs may target any
// template including self and earlier ones, so cycles, fan mismatches and
// every lying mapping are all reachable. What follows the arcs declares
// Access models over two 64-byte buffers (see fuzzAccessModel); an input
// that ends with the arcs declares none.
func buildFuzzProgram(data []byte) *core.Program {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := core.NewProgram("fuzz")
	p.AddBuffer("a", fuzzBufSize)
	p.AddBuffer("b", fuzzBufSize)
	blk := p.AddBlock()
	nt := int(next()%4) + 1
	tmpls := make([]*core.Template, nt)
	for i := 0; i < nt; i++ {
		t := core.NewTemplate(core.ThreadID(i+1), "t", noop)
		t.Instances = core.Context(next()%8) + 1
		tmpls[i] = t
		blk.Add(t)
	}
	for i := 0; i < nt; i++ {
		narcs := int(next() % 3)
		for a := 0; a < narcs; a++ {
			to := core.ThreadID(int(next())%nt) + 1
			tmpls[i].Then(to, fuzzMapping(next(), next()))
		}
	}
	for i := 0; i < nt; i++ {
		descs := make([]fuzzRegion, next()%4)
		for d := range descs {
			descs[d] = fuzzRegion{flags: next(), off: next(), size: next()}
		}
		tmpls[i].Access = fuzzAccessModel(descs)
	}
	return p
}

const fuzzBufSize = 64

// fuzzRegion describes one region of every context of a template:
//
//	flags bit 0    write
//	flags bit 1    buffer "b" instead of "a"
//	flags bits 2-3 per-context stride 0, 1, 8 or 12 bytes (0: every
//	               context touches the same bytes; 1 with a stride-8
//	               sibling: the strided columns of an FFT)
//	flags bit 4    only even contexts declare it
//	flags bit 5    declared twice (duplicate regions)
//	off            base offset -4..67, so both ends of the buffer are
//	               overrun now and then
//	size           0..11 bytes, so zero-size regions occur
type fuzzRegion struct{ flags, off, size byte }

// fuzzAccessModel returns the Access model of up to three fuzzRegions,
// nil for none. Every call returns a fresh slice, like the suite's.
func fuzzAccessModel(descs []fuzzRegion) core.AccessFn {
	if len(descs) == 0 {
		return nil
	}
	return func(ctx core.Context) []core.MemRegion {
		var regs []core.MemRegion
		for _, d := range descs {
			if d.flags&16 != 0 && ctx%2 == 1 {
				continue
			}
			reg := core.MemRegion{
				Buffer: "a",
				Offset: int64(d.off%72) - 4 + int64(ctx)*[4]int64{0, 1, 8, 12}[d.flags>>2&3],
				Size:   int64(d.size % 12),
				Write:  d.flags&1 != 0,
			}
			if d.flags&2 != 0 {
				reg.Buffer = "b"
			}
			regs = append(regs, reg)
			if d.flags&32 != 0 {
				regs = append(regs, reg)
			}
		}
		return regs
	}
}

func FuzzLintOracle(f *testing.F) {
	f.Add([]byte{1, 4, 1, 1, 8, 0})                   // self-arc fakeInc: instance cycle
	f.Add([]byte{2, 4, 4, 1, 2, 6, 0, 0})             // overDeliver between two templates
	f.Add([]byte{2, 4, 4, 1, 2, 7, 0, 0})             // underDeliver: dead instances
	f.Add([]byte{2, 2, 2, 1, 2, 9, 0, 0})             // wildTarget: out-of-range
	f.Add([]byte{3, 8, 8, 1, 1, 2, 4, 3, 1, 2, 1, 0}) // scatter/all-to-one chain
	f.Add([]byte{2, 5, 5, 1, 2, 0, 0, 0})             // clean one-to-one
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram(data)
		if p.Validate() != nil {
			return // ddmlint only analyzes structurally valid programs
		}
		r, err := Lint(p) // must never panic
		if err != nil {
			t.Fatalf("Lint errored on a validated program: %v", err)
		}
		accepted := oracleAccepts(p)
		found := structuralGraphFindings(r)
		if accepted && found > 0 {
			t.Fatalf("false positive: oracle accepts but ddmlint reports %d structural finding(s): %v", found, r.Findings)
		}
		if !accepted && found == 0 {
			t.Fatalf("false negative: oracle rejects but ddmlint is clean (notes: %v)", r.Notes)
		}
	})
}
