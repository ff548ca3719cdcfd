package mem

import "testing"

// BenchmarkMESIAccess measures the cache model's per-line cost with
// cross-core sharing.
func BenchmarkMESIAccess(b *testing.B) {
	h := NewHierarchy(4, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i & 3
		h.Access(c, uint64(i%4096)*64, 64, i%7 == 0)
	}
}
