package ddmlint

import (
	"testing"

	"tflux/internal/core"
	"tflux/internal/rts"
	"tflux/internal/stream"
)

// stampState is the runtime counterpart of the stale-scratch finding:
// single-event windows through one recycled slot, where "observe" reads
// the slot's mark and only the LATER "stamp" stage writes it. With one
// slot and one worker the schedule is deterministic — window n+1 is
// admitted only after window n exported and released the slot — so what
// observe sees is exactly what the slot's previous occupant left.
type stampState struct {
	mark     [1]int64 // slot-indexed scratch (slots=1)
	observed []int64  // what observe read, per window
}

func (s *stampState) pipeline(zero bool) *stream.Pipeline {
	p := &stream.Pipeline{
		Name:    "stamp-runtime",
		Window:  1,
		Scratch: []stream.ScratchDecl{{Name: "mark", Len: 1, ZeroOnExport: zero}},
		Stages: []stream.Stage{
			{Name: "observe", Instances: 1, Map: core.OneToOne{},
				Body: func(c stream.Ctx) {
					s.observed = append(s.observed, s.mark[c.Slot])
				},
				Scratch: func(core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: 0, Hi: 1}}
				}},
			{Name: "stamp", Instances: 1,
				Body: func(c stream.Ctx) {
					s.mark[c.Slot] = c.Window + 1
				},
				Scratch: func(core.Context) []stream.ScratchAccess {
					return []stream.ScratchAccess{{Array: "mark", Lo: 0, Hi: 1, Write: true}}
				}},
		},
	}
	if zero {
		p.Export = func(win int64, slot int) { s.mark[slot] = 0 }
	}
	return p
}

// TestStaleScratchObservableAtRuntime closes the loop between the
// verifier and the runtime: the pipeline LintStream flags as
// stale-scratch really does observe the previous occupant's data on a
// recycled slot under rts.RunStream, and the ZeroOnExport twin that
// lints clean really observes zeros.
func TestStaleScratchObservableAtRuntime(t *testing.T) {
	opt := stream.Options{Slots: 1, Workers: 1}

	// Flagged variant: stamp of window n leaks into observe of window n+1.
	dirty := &stampState{}
	p := dirty.pipeline(false)
	rep, err := LintStream(p, stream.Block)
	if err != nil {
		t.Fatal(err)
	}
	if hasKind(rep, KindStaleScratch) == nil {
		t.Fatalf("verifier did not flag the stale pipeline: %v", kinds(rep))
	}
	if _, err := rts.RunStream(p, stream.NewCountSource(3, 0), opt); err != nil {
		t.Fatal(err)
	}
	if got, want := dirty.observed, []int64{0, 1, 2}; !equalInt64s(got, want) {
		t.Fatalf("stale pipeline observed %v, want %v (each window reading the previous occupant's stamp)", got, want)
	}

	// Declared-clean variant: Export zeroes the slot, as ZeroOnExport
	// promises, and every window observes zero.
	clean := &stampState{}
	p = clean.pipeline(true)
	rep, err = LintStream(p, stream.Block)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("ZeroOnExport pipeline should lint clean, got %v", kinds(rep))
	}
	if _, err := rts.RunStream(p, stream.NewCountSource(3, 0), opt); err != nil {
		t.Fatal(err)
	}
	if got, want := clean.observed, []int64{0, 0, 0}; !equalInt64s(got, want) {
		t.Fatalf("zeroed pipeline observed %v, want %v", got, want)
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
