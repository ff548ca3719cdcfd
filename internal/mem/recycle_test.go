package mem

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// emptyFree drops every released hierarchy, so that the next NewHierarchy
// builds its caches anew.
func emptyFree() {
	free.Lock()
	free.list = nil
	free.Unlock()
}

// replay runs a seeded random trace of reads and writes from every core
// over a range four times a core's L2, so that it evicts, writes back,
// upgrades and supplies cache to cache, and returns each access's cost.
func replay(h *Hierarchy, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	span := 4 * h.cfg.L2.Size
	costs := make([]int64, 20000)
	for i := range costs {
		costs[i] = h.Access(r.Intn(h.Cores()), uint64(r.Int63n(span)), 8+r.Int63n(256), r.Intn(3) == 0)
	}
	return costs
}

// setGen stamps every cache of h with gen, as if h had been recycled
// that many times.
func setGen(h *Hierarchy, gen uint32) {
	for _, n := range h.nodes {
		n.l1.gen, n.l2.gen = gen, gen
	}
}

// TestRecycledHierarchyIsFresh pins that a released hierarchy, dirtied by
// another trace, costs every access of a trace exactly as a newly built
// one does and ends with the same counters, including when the recycling
// carries the generation stamp across its wrap.
func TestRecycledHierarchyIsFresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		cores int
		gen   uint32 // stamp forced before the dirtying trace; 0 keeps it
	}{
		{"default", DefaultConfig(), 4, 0},
		{"x86", X86Config(), 3, 0},
		{"default/wrap", DefaultConfig(), 4, math.MaxUint32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emptyFree()
			h := NewHierarchy(tc.cores, tc.cfg)
			want := replay(h, 1)
			wantStats := h.Stats()

			// Dirty h: lines stamped with its first generation stay in the
			// arrays; the wrap case then stamps more with the last one.
			replay(h, 2)
			if tc.gen != 0 {
				setGen(h, tc.gen)
				replay(h, 3)
			}
			h.Release()
			r := NewHierarchy(tc.cores, tc.cfg)
			if r != h {
				t.Fatal("NewHierarchy built a new hierarchy instead of reusing the released one")
			}
			if got := replay(r, 1); !slices.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("access %d costs %d cycles on the recycled hierarchy, %d on a fresh one", i, got[i], want[i])
			}
			if got := r.Stats(); got != wantStats {
				t.Fatalf("recycled stats %+v, fresh %+v", got, wantStats)
			}
			r.Release()
		})
	}
}

// TestFreeListBounded pins that releasing more hierarchies than the free
// list holds keeps only the newest, and that a hierarchy is reused only
// for its own shape.
func TestFreeListBounded(t *testing.T) {
	emptyFree()
	defer emptyFree()
	var released []*Hierarchy
	for i := 0; i < maxFree+2; i++ {
		h := NewHierarchy(1+i, tinyConfig())
		released = append(released, h)
		h.Release()
	}
	if n := len(free.list); n != maxFree {
		t.Fatalf("free list holds %d hierarchies, want %d", n, maxFree)
	}
	if h := NewHierarchy(1, tinyConfig()); h == released[0] {
		t.Fatal("the oldest release was kept past the bound")
	}
	if h := NewHierarchy(maxFree+2, tinyConfig()); h != released[maxFree+1] {
		t.Fatal("the newest release was not reused for its shape")
	}
	if h := NewHierarchy(maxFree+1, DefaultConfig()); h == released[maxFree] {
		t.Fatal("a hierarchy was reused for another configuration")
	}
}
