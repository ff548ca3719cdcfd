package exp

import (
	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/rts"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// Shards is the sharded-TSU scaling study: fine-grained TRAPEZ (unroll 1,
// so TSU command processing sits on the critical path exactly as in the
// Groups hardware study) on the soft runtime, comparing the legacy
// dedicated-emulator plane against the sharded plane at shards == kernels,
// and against sharded plus the Access-region locality mapping. Speedup is
// relative to the legacy emulator at the same kernel count, so values
// above 1.0 quantify what removing the serializing emulator buys; the
// Unroll column reports the shard count (0 = legacy). Wall-clock only —
// the virtual-time model has no TSU contention to remove. (Extension; not
// a paper figure.)
func Shards(o Options) ([]Row, error) {
	plane := func(tag string, shards int, mapping func(*core.Program) tsu.Mapping) point {
		return point{tag: tag, value: shards, unroll: 1,
			m: soft(o, false, func(p *core.Program, kernels int) rts.Options {
				ro := rts.Options{Kernels: kernels, TSUShards: shards}
				if mapping != nil {
					ro.TSUMapping = mapping(p)
				}
				return ro
			})}
	}
	var rows []Row
	for _, kernels := range o.kernelCounts([]int{2, 4, 8, 16}) {
		r, err := study(o, "shards", "TRAPEZ", workload.Small, kernels, true, []point{
			plane("legacy", 0, nil),
			plane("sharded", kernels, nil),
			plane("sharded+loc", kernels, ddmlint.LocalityMapping),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}
