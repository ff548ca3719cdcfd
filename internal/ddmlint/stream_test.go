package ddmlint

import (
	"slices"
	"strings"
	"testing"

	"tflux/internal/core"
	"tflux/internal/stream"
	"tflux/internal/workload"
)

// mustLintStream lints a pipeline that must pass Pipeline.Block.
func mustLintStream(t *testing.T, p *stream.Pipeline, policy stream.Policy) *Report {
	t.Helper()
	r, err := LintStream(p, policy)
	if err != nil {
		t.Fatalf("LintStream(%s): %v", p.Name, err)
	}
	return r
}

func assertClean(t *testing.T, r *Report) {
	t.Helper()
	if !r.OK() {
		t.Fatalf("want clean report, got findings %v", kinds(r))
	}
	if len(r.Notes) > 0 {
		t.Fatalf("want no notes, got %v", r.Notes)
	}
}

// staleMarkPipeline is the canonical stale-scratch trigger: the entry
// reads mark[l] and only a LATER stage writes it, so on a recycled slot
// every read observes the previous occupant's stamp. ZeroOnExport
// declares the export-zeroing contract that makes the same shape clean.
func staleMarkPipeline(zero bool) *stream.Pipeline {
	const w = 4
	return &stream.Pipeline{
		Name:    "stale-mark",
		Window:  w,
		Scratch: []stream.ScratchDecl{{Name: "mark", Len: w, ZeroOnExport: zero}},
		Stages: []stream.Stage{
			{Name: "observe", Instances: w, Map: core.OneToOne{},
				Scratch: func(l core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: l, Hi: l + 1}}
				}},
			{Name: "stamp", Instances: w,
				Scratch: func(l core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: l, Hi: l + 1, Write: true}}
				}},
		},
	}
}

func TestStreamStaleScratch(t *testing.T) {
	r := mustLintStream(t, staleMarkPipeline(false), stream.Block)
	if len(r.Findings) != 1 {
		t.Fatalf("want exactly the stale-scratch finding, got %v", kinds(r))
	}
	f := hasKind(r, KindStaleScratch)
	if f == nil {
		t.Fatalf("no stale-scratch finding: %v", kinds(r))
	}
	if f.Buffer != ScratchBuffer("mark") {
		t.Errorf("finding buffer %q, want %q", f.Buffer, ScratchBuffer("mark"))
	}
	if f.Count != 4 {
		t.Errorf("finding aggregates %d elements, want 4 (one per read local)", f.Count)
	}
	if len(f.Threads) != 2 {
		t.Errorf("finding implicates threads %v, want reader and writer", f.Threads)
	}
	if !strings.Contains(f.Msg, `later in the window, by stage 2 ("stamp")`) {
		t.Errorf("message does not name the too-late writer: %s", f.Msg)
	}
	if f.Kind.Structural() {
		t.Error("stale-scratch must be a data finding, not structural")
	}
}

func TestStreamStaleScratchZeroOnExportClean(t *testing.T) {
	assertClean(t, mustLintStream(t, staleMarkPipeline(true), stream.Block))
}

// TestStreamStaleScratchCoveredClean is the non-trigger twin: the same
// read is dominated by a same-window write on a NON-entry stage, so it
// is clean without any ZeroOnExport contract, in full and padded
// windows alike.
func TestStreamStaleScratchCoveredClean(t *testing.T) {
	const w = 4
	p := &stream.Pipeline{
		Name:    "covered-mark",
		Window:  w,
		Scratch: []stream.ScratchDecl{{Name: "mark", Len: w}},
		Stages: []stream.Stage{
			{Name: "ingest", Instances: w, Map: core.OneToOne{}},
			{Name: "fill", Instances: w, Map: core.OneToOne{},
				Scratch: func(l core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: l, Hi: l + 1, Write: true}}
				}},
			{Name: "drain", Instances: w,
				Scratch: func(l core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: l, Hi: l + 1}}
				}},
		},
	}
	assertClean(t, mustLintStream(t, p, stream.Block))
}

// padLeakPipeline is the canonical pad-soundness trigger: the entry
// writes buf[l] and a single reducer reads the whole window. A full
// window covers every element, so plain scratch-lifetime is clean —
// but in a partial final window the skipped pad bodies write nothing,
// and the reducer folds the previous occupant's tail into its export.
func padLeakPipeline(zero bool) *stream.Pipeline {
	const w = 4
	return &stream.Pipeline{
		Name:    "pad-leak",
		Window:  w,
		Scratch: []stream.ScratchDecl{{Name: "buf", Len: w, ZeroOnExport: zero}},
		Stages: []stream.Stage{
			{Name: "fill", Instances: w, Map: core.AllToOne{},
				Scratch: func(l core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "buf", Lo: l, Hi: l + 1, Write: true}}
				}},
			{Name: "sum", Instances: 1,
				Scratch: func(core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "buf", Lo: 0, Hi: w}}
				}},
		},
	}
}

func TestStreamPadLeak(t *testing.T) {
	r := mustLintStream(t, padLeakPipeline(false), stream.Block)
	if len(r.Findings) != 1 {
		t.Fatalf("want exactly the pad-leak finding, got %v", kinds(r))
	}
	f := hasKind(r, KindPadLeak)
	if f == nil {
		t.Fatalf("no pad-leak finding: %v", kinds(r))
	}
	if f.Count != 3 {
		t.Errorf("finding aggregates %d elements, want 3 (every local but the first)", f.Count)
	}
	if !strings.Contains(f.Msg, "pads skip") {
		t.Errorf("message does not explain the skipped pad bodies: %s", f.Msg)
	}
}

func TestStreamPadLeakZeroOnExportClean(t *testing.T) {
	assertClean(t, mustLintStream(t, padLeakPipeline(true), stream.Block))
}

// shedPipeline accumulates in its second stage and its export;
// tolerant toggles the declarations that make that acceptable.
func shedPipeline(tolerant bool) *stream.Pipeline {
	const w = 2
	return &stream.Pipeline{
		Name:   "shed",
		Window: w,
		Stages: []stream.Stage{
			{Name: "decode", Instances: w, Map: core.AllToOne{}},
			{Name: "total", Instances: 1, Accumulates: true, ShedTolerant: tolerant},
		},
		ExportAccumulates:  true,
		ExportShedTolerant: tolerant,
	}
}

func TestStreamShedUnsafe(t *testing.T) {
	r := mustLintStream(t, shedPipeline(false), stream.Shed)
	if len(r.Findings) != 2 {
		t.Fatalf("want shed-unsafe findings for the stage and the export, got %v", kinds(r))
	}
	var stage, export *Finding
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Kind != KindShedUnsafe {
			t.Fatalf("unexpected finding kind %v: %s", f.Kind, f.Msg)
		}
		if len(f.Threads) > 0 {
			stage = f
		} else {
			export = f
		}
	}
	if stage == nil || !strings.Contains(stage.Msg, `stage "total"`) {
		t.Errorf("no stage-level shed-unsafe finding naming the accumulator: %+v", r.Findings)
	}
	if export == nil || !strings.Contains(export.Msg, "Export") {
		t.Errorf("no export-level shed-unsafe finding: %+v", r.Findings)
	}
}

func TestStreamShedSafeUnderBlock(t *testing.T) {
	// The same undeclared accumulators are fine when nothing is shed.
	assertClean(t, mustLintStream(t, shedPipeline(false), stream.Block))
}

func TestStreamShedTolerantClean(t *testing.T) {
	assertClean(t, mustLintStream(t, shedPipeline(true), stream.Shed))
}

// lyingPipeline routes the entry through a mapping whose instance-level
// behaviour contradicts its declaration — the lint_test.go liars.
func lyingPipeline(name string, m core.Mapping) *stream.Pipeline {
	const w = 4
	return &stream.Pipeline{
		Name:   name,
		Window: w,
		Stages: []stream.Stage{
			{Name: "src", Instances: w, Map: m},
			{Name: "sink", Instances: w},
		},
	}
}

// assertStructuralKinds lints p under both backpressure policies and
// requires exactly the given finding kinds, each structural: a lying
// per-window graph must be refused whatever happens to the windows its
// broken Block would pin.
func assertStructuralKinds(t *testing.T, p *stream.Pipeline, want ...Kind) {
	t.Helper()
	for _, pol := range []stream.Policy{stream.Block, stream.Shed} {
		r := mustLintStream(t, p, pol)
		got := kinds(r)
		if !slices.Equal(got, want) {
			t.Fatalf("%s under %s: findings %v, want %v", p.Name, pol, got, want)
		}
		for _, f := range r.Findings {
			if !f.Kind.Structural() {
				t.Errorf("%s under %s: %v finding must be structural", p.Name, pol, f.Kind)
			}
		}
	}
}

// TestStreamLifecycleOverDelivery: an instance that receives more
// decrements than its loaded Ready Count would drive the count negative
// on the first window; the batch ready-count check refuses it.
func TestStreamLifecycleOverDelivery(t *testing.T) {
	assertStructuralKinds(t, lyingPipeline("over", overDeliver{}), KindReadyCount)
}

// TestStreamLifecyclePinnedSlot: instances that never fire keep the
// window's Block from draining, so its slot is never returned; the
// ready-count and dead-instance checks refuse it.
func TestStreamLifecyclePinnedSlot(t *testing.T) {
	assertStructuralKinds(t, lyingPipeline("under", underDeliver{}), KindReadyCount, KindDeadInstance)
}

// TestStreamSuiteClean is the sweep: every built-in streaming workload
// must lint clean, with no skipped analyses, under every policy it
// declares — the acceptance bar cmd/tfluxvet -stream enforces in CI.
func TestStreamSuiteClean(t *testing.T) {
	specs := workload.StreamSuite()
	if len(specs) == 0 {
		t.Fatal("no built-in streaming workloads")
	}
	for _, spec := range specs {
		p, err := spec.Make(0)
		if err != nil {
			t.Fatalf("%s: build: %v", spec.Name, err)
		}
		for _, pol := range spec.Policies {
			r := mustLintStream(t, p, pol)
			if !r.OK() || len(r.Notes) > 0 {
				t.Errorf("%s under %s: findings %v, notes %v", spec.Name, pol, r.Findings, r.Notes)
			}
		}
	}
}

// TestStreamNilPipeline pins the error contract.
func TestStreamNilPipeline(t *testing.T) {
	if _, err := LintStream(nil, stream.Block); err == nil {
		t.Fatal("want error for nil pipeline")
	}
	if _, err := LintStream(&stream.Pipeline{Name: "empty"}, stream.Block); err == nil {
		t.Fatal("want error for stageless pipeline")
	}
}

// TestStreamBatchCompat: the analysis pseudo-buffers must not leak into
// the pipeline's own Program — plain batch linting of a pipeline with a
// scratch model still works and knows nothing about "scratch:" buffers.
func TestStreamBatchCompat(t *testing.T) {
	prog, err := staleMarkPipeline(false).Program()
	if err != nil {
		t.Fatal(err)
	}
	r := mustLint(t, prog)
	assertClean(t, r)
}
