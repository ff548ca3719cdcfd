package ddmlint

import (
	"tflux/internal/core"
	"tflux/internal/tsu"
)

// RegionSummaries distills the per-context Access declarations of every
// template into one CtxRegion per context — the same expansion the race
// detector walks, reduced to the context's dominant footprint: the largest
// written region, falling back to the largest read when the context writes
// nothing. Writes win outright because shared read-only inputs (e.g. the
// whole B matrix every MMULT row scans) are identical across contexts and
// carry no placement signal, while the written range is what
// cache-coherence traffic follows. Templates with no Access model (or no
// sized regions anywhere) get no entry, which makes a LocalityMapping fall
// back to the range split for them.
func RegionSummaries(p *core.Program) map[core.ThreadID][]tsu.CtxRegion {
	out := make(map[core.ThreadID][]tsu.CtxRegion)
	tab := p.AccessTable()
	for _, b := range p.Blocks {
		for _, t := range b.Templates {
			if t.Access == nil || t.Instances == 0 {
				continue
			}
			regs := make([]tsu.CtxRegion, t.Instances)
			any := false
			for ctx := core.Context(0); ctx < t.Instances; ctx++ {
				var best core.MemRegion
				for _, reg := range tab.Row(core.Instance{Thread: t.ID, Ctx: ctx}) {
					if reg.Size <= 0 {
						continue
					}
					if (reg.Write && !best.Write) ||
						(reg.Write == best.Write && reg.Size > best.Size) {
						best = reg
					}
				}
				if best.Size > 0 {
					regs[ctx] = tsu.CtxRegion{Buf: best.Buffer, Lo: best.Offset, Hi: best.Offset + best.Size}
					any = true
				}
			}
			if any {
				out[t.ID] = regs
			}
		}
	}
	return out
}

// LocalityMapping builds the locality-aware TKT policy for p from its
// declared Access regions: contexts that touch the same or adjacent byte
// ranges are co-located on the same kernel. It is the static-analysis
// counterpart of the TKT range split — same inputs the race detector
// trusts, so its quality degrades exactly where the linter's soundness
// caveat applies (undeclared accesses).
func LocalityMapping(p *core.Program) tsu.Mapping {
	return tsu.NewLocalityMapping(RegionSummaries(p))
}
