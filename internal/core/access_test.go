package core

import (
	"reflect"
	"testing"
)

// TestAccessTableAsksOnce: an on-demand table calls a model the first
// time a row is read and never again — a nil answer included — while the
// program's own table asks about every instance up front, once.
func TestAccessTableAsksOnce(t *testing.T) {
	calls := make(map[Context]int)
	p := NewProgram("once")
	p.AddBuffer("buf", 64)
	w := NewTemplate(1, "w", func(Context) {})
	w.Instances = 4
	w.Access = func(ctx Context) []MemRegion {
		calls[ctx]++
		if ctx == 3 {
			return nil
		}
		return []MemRegion{{Buffer: "buf", Offset: int64(ctx) * 8, Size: 8, Write: true}}
	}
	bare := NewTemplate(2, "bare", func(Context) {})
	blk := p.AddBlock()
	blk.Add(w)
	blk.Add(bare)

	lazy := NewAccessTable(p)
	for range 3 {
		if got := lazy.Row(Instance{Thread: 1, Ctx: 2}); len(got) != 1 || got[0].Offset != 16 {
			t.Fatalf("row of T1.2 = %+v", got)
		}
		if got := lazy.Row(Instance{Thread: 1, Ctx: 3}); got != nil {
			t.Fatalf("row of T1.3 = %+v, want the model's nil", got)
		}
	}
	if got := lazy.Row(Instance{Thread: 1, Ctx: 9}); got != nil {
		t.Fatalf("row of a context the template does not have = %+v", got)
	}
	if got := lazy.Row(Instance{Thread: 2}); got != nil {
		t.Fatalf("row of a template without a model = %+v", got)
	}
	if want := map[Context]int{2: 1, 3: 1}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("model calls by context = %v, want %v", calls, want)
	}

	clear(calls)
	full := p.AccessTable()
	if p.AccessTable() != full {
		t.Fatal("the program built a second table")
	}
	full.Regions()
	full.Row(Instance{Thread: 1, Ctx: 0})
	if want := map[Context]int{0: 1, 1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("model calls by context = %v, want %v", calls, want)
	}
}
