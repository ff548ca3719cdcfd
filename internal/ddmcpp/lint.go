package ddmcpp

import (
	"errors"
	"fmt"
	"io"

	"tflux/internal/core"
	"tflux/internal/ddmlint"
)

// BuildCore constructs the core.Program the generated code will build at
// runtime — same thread IDs, instance counts, mappings, buffers and
// Access regions, with no-op bodies — so the instance-level verifier can
// run at compile time, before any code is emitted. The returned map gives
// each thread's directive source line for positioned diagnostics.
// The File must have passed Analyze.
func BuildCore(f *File) (*core.Program, map[core.ThreadID]int, error) {
	p := core.NewProgram(f.Name)
	lines := make(map[core.ThreadID]int)
	for _, v := range f.Vars {
		p.AddBuffer(v.Name, v.Size)
	}
	for _, blk := range f.Blocks {
		b := p.AddBlock()
		for _, th := range blk.Threads {
			id := core.ThreadID(th.ID)
			lines[id] = th.Line
			t := core.NewTemplate(id, fmt.Sprintf("thread%d", th.ID), func(core.Context) {})
			t.Instances = core.Context(th.Instances)
			if th.Kernel >= 0 {
				t.Affinity = th.Kernel
			}
			t.Access = accessModel(f, th)
			b.Add(t)
		}
		// The directive language declares dependencies on the consumer;
		// the runtime hangs arcs on the producer (exactly as Generate
		// emits them).
		for _, th := range blk.Threads {
			for _, d := range th.Depends {
				prod := b.Template(core.ThreadID(d.On))
				if prod == nil {
					return nil, nil, errf(f.Input, d.Line, "thread %d depends on undeclared thread %d", th.ID, d.On)
				}
				prod.Then(core.ThreadID(th.ID), coreMapping(d))
			}
		}
	}
	return p, lines, nil
}

// coreMapping mirrors genMapping into core values.
func coreMapping(d Dep) core.Mapping {
	switch d.Map {
	case MapOne:
		return core.OneToOne{}
	case MapAll:
		return core.AllToOne{}
	case MapGather:
		return core.Gather{Fan: core.Context(d.Arg)}
	case MapScatter:
		return core.Scatter{Fan: core.Context(d.Arg)}
	}
	return core.OneToAll{}
}

// accessModel mirrors genRegions/ddmChunkRegion: whole-buffer regions for
// plain references, per-instance element chunks for `:chunk` ones. Nil
// when the thread declares no imports or exports.
func accessModel(f *File, th *Thread) core.AccessFn {
	type regTmpl struct {
		v       Var
		chunked bool
		write   bool
	}
	var tmpls []regTmpl
	add := func(ref VarRef, write bool) {
		if v, ok := findVar(f, ref.Name); ok {
			tmpls = append(tmpls, regTmpl{v: v, chunked: ref.Chunked, write: write})
		}
	}
	for _, imp := range th.Imports {
		add(imp, false)
	}
	for _, ex := range th.Exports {
		add(ex, true)
	}
	if len(tmpls) == 0 {
		return nil
	}
	parts := int64(th.Instances)
	return func(ctx core.Context) []core.MemRegion {
		regs := make([]core.MemRegion, 0, len(tmpls))
		for _, rt := range tmpls {
			if rt.chunked {
				elem := varElem(rt.v)
				n := rt.v.Size / elem
				lo := int64(ctx) * n / parts * elem
				hi := (int64(ctx) + 1) * n / parts * elem
				regs = append(regs, core.MemRegion{
					Buffer: rt.v.Name, Offset: lo, Size: hi - lo,
					Write: rt.write, Stream: hi-lo > streamThreshold,
				})
				continue
			}
			regs = append(regs, core.MemRegion{
				Buffer: rt.v.Name, Size: rt.v.Size,
				Write: rt.write, Stream: rt.v.Size > streamThreshold,
			})
		}
		return regs
	}
}

// ProcessDiag is the preprocessor pipeline with compile-time graph
// verification: parse, analyze, lint the program the File describes,
// generate. Structural findings describe a broken synchronization graph
// and abort with an error positioned at the first implicated thread's
// directive; the rest (races between declared accesses) come back as
// warnings — the declarations may over-approximate what bodies touch —
// and compilation proceeds.
func ProcessDiag(name string, src io.Reader, target Target) (code []byte, warnings []string, err error) {
	f, err := Parse(name, src)
	if err != nil {
		return nil, nil, err
	}
	if err := Analyze(f); err != nil {
		return nil, nil, err
	}
	p, lines, err := BuildCore(f)
	if err != nil {
		return nil, nil, err
	}
	rep, err := ddmlint.Lint(p)
	if err != nil {
		// Validate failures Analyze does not mirror (dependency cycles,
		// most notably — Analyze only rejects self-deps) land here;
		// attribute them to the offending block's directive line.
		line := 1
		var verr *core.ValidationError
		if errors.As(err, &verr) && verr.Block >= 0 && verr.Block < len(f.Blocks) {
			line = f.Blocks[verr.Block].Line
		}
		return nil, nil, errf(f.Input, line, "%v", err)
	}
	for i := range rep.Findings {
		fd := &rep.Findings[i]
		line := 1
		if len(fd.Threads) > 0 {
			if l, ok := lines[fd.Threads[0]]; ok {
				line = l
			}
		}
		pos := &Error{File: f.Input, Line: line, Msg: "ddmlint: " + fd.Msg}
		if fd.Kind.Structural() {
			return nil, warnings, pos
		}
		warnings = append(warnings, pos.Error())
	}
	code, err = Generate(f, target)
	return code, warnings, err
}
