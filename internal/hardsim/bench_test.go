package hardsim

import (
	"testing"

	"tflux/internal/core"
)

// BenchmarkHardSimThread measures simulated-machine throughput: event-loop
// work per simulated DThread, 1024 of them on 8 cores.
func BenchmarkHardSimThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.NewProgram("hs")
		t := core.NewTemplate(1, "t", func(core.Context) {})
		t.Instances = 1024
		t.Cost = func(core.Context) int64 { return 100 }
		p.AddBlock().Add(t)
		if _, err := Run(p, Config{Cores: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
