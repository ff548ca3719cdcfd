package core

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

func TestInBoundsEdges(t *testing.T) {
	const size = 64
	for _, c := range []struct {
		off, n, size int64
		want         bool
	}{
		{0, 0, size, true},
		{0, size, size, true},
		{0, size + 1, size, false},
		{size, 0, size, true}, // empty region at the end
		{size, 1, size, false},
		{size - 1, 1, size, true},
		{size - 1, 2, size, false},
		{size + 1, 0, size, false},
		{8, 8, size, true},
		{60, 8, size, false},
		{-1, 1, size, false},
		{0, -1, size, false},
		{-8, 16, size, false},
		{math.MinInt64, 1, size, false},
		{0, math.MinInt64, size, false},
		// off+n wraps int64 in each of these.
		{math.MaxInt64, 1, size, false},
		{math.MaxInt64, math.MaxInt64, size, false},
		{math.MaxInt64 - 3, 4, size, false},
		{math.MaxInt64 - 3, 64, size, false},
		{1, math.MaxInt64, size, false},
		{1 << 62, 1 << 62, size, false},
		// A buffer as large as the type allows still has an end.
		{math.MaxInt64, 0, math.MaxInt64, true},
		{math.MaxInt64 - 3, 3, math.MaxInt64, true},
		{math.MaxInt64 - 3, 4, math.MaxInt64, false},
		{0, 0, 0, true},
		{0, 1, 0, false},
		{0, 0, -1, false},
	} {
		if got := InBounds(c.off, c.n, c.size); got != c.want {
			t.Errorf("InBounds(%d, %d, %d) = %v, want %v", c.off, c.n, c.size, got, c.want)
		}
	}
}

// FuzzInBounds holds the predicate to arbitrary-precision arithmetic,
// where off+n cannot wrap.
func FuzzInBounds(f *testing.F) {
	for _, s := range [][3]int64{
		{0, 0, 0}, {8, 8, 64}, {60, 8, 64}, {64, 0, 64}, {-1, 1, 64},
		{math.MaxInt64, 1, 64}, {math.MaxInt64 - 3, 4, 64}, {1 << 62, 1 << 62, 64},
		{math.MaxInt64 - 3, 4, math.MaxInt64}, {math.MinInt64, math.MinInt64, 0},
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, off, n, size int64) {
		end := new(big.Int).Add(big.NewInt(off), big.NewInt(n))
		want := off >= 0 && n >= 0 && end.Cmp(big.NewInt(size)) <= 0
		if got := InBounds(off, n, size); got != want {
			t.Fatalf("InBounds(%d, %d, %d) = %v, oracle says %v", off, n, size, got, want)
		}
	})
}

func TestSharedVariableBufferCovers(t *testing.T) {
	svb := NewSharedVariableBuffer()
	svb.Register("a", make([]byte, 16))
	svb.Register("b", make([]byte, 8))
	if err := svb.Covers([]Buffer{{Name: "a", Size: 16}, {Name: "b", Size: 4}}); err != nil {
		t.Fatalf("covered declarations rejected: %v", err)
	}
	if err := svb.Covers(nil); err != nil {
		t.Fatalf("no declarations rejected: %v", err)
	}
	for name, decls := range map[string][]Buffer{
		"missing buffer": {{Name: "a", Size: 16}, {Name: "c", Size: 1}},
		"short buffer":   {{Name: "b", Size: 9}},
	} {
		err := svb.Covers(decls)
		if err == nil || !strings.Contains(err.Error(), "registered with") {
			t.Errorf("%s: err = %v, want a registration error", name, err)
		}
	}
}

func TestSharedVariableBufferSlice(t *testing.T) {
	backing := make([]byte, 16)
	for i := range backing {
		backing[i] = byte(i)
	}
	svb := NewSharedVariableBuffer()
	svb.Register("x", backing)

	got, err := svb.Slice("x", 4, 8)
	if err != nil || len(got) != 8 || cap(got) != 8 || got[0] != 4 {
		t.Fatalf("Slice(x, 4, 8) = %v (cap %d), %v", got, cap(got), err)
	}
	got[0] = 99 // aliases the registered bytes
	if backing[4] != 99 {
		t.Fatal("Slice returned a copy, want an alias")
	}
	_ = append(got, 0xff) // capacity-clipped: must reallocate
	if backing[12] != 12 {
		t.Fatal("append through a Slice result spilled into the neighbouring bytes")
	}
	if got, err := svb.Slice("x", 16, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty region at the buffer end = %v, %v", got, err)
	}
	for _, c := range []struct {
		buffer string
		off, n int64
		want   string
	}{
		{"y", 0, 1, "unregistered buffer"},
		{"x", 8, 64, "outside buffer"},
		{"x", 17, 0, "outside buffer"},
		{"x", -1, 1, "outside buffer"},
		{"x", 0, -1, "outside buffer"},
		{"x", math.MaxInt64, 1, "outside buffer"},
	} {
		got, err := svb.Slice(c.buffer, c.off, c.n)
		if got != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Slice(%q, %d, %d) = %v, %v, want a %q error", c.buffer, c.off, c.n, got, err, c.want)
		}
	}
}
