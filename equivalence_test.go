package tflux_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tflux"
	"tflux/internal/byteview"
)

// recorder collects execution facts every platform must agree on: which
// instances ran, how often, and in what relative layer order.
type recorder struct {
	mu    sync.Mutex
	seen  map[string]int
	order []string
}

func (r *recorder) hit(tag string) {
	r.mu.Lock()
	r.seen[tag]++
	r.order = append(r.order, tag)
	r.mu.Unlock()
}

// buildLayered constructs a random layered program over the public API.
// Every instance records itself into rec; consecutive layers are wired
// with a shape-correct random mapping. The returned check validates
// exactly-once execution and layer start ordering.
func buildLayered(r *rand.Rand, rec *recorder) (*tflux.Program, *tflux.CellBuffers, func(t *testing.T, platform string)) {
	layers := 2 + r.Intn(3)
	counts := make([]int, layers)
	p := tflux.NewProgram("equiv")
	p.Buffer("pad", 64)
	pad := make([]byte, 64)

	type arcInfo struct {
		kind   int // 0 one-to-one, 1 all-to-one, 2 one-to-all
		target int // all-to-one target
	}
	arcs := make([]arcInfo, layers) // arcs[l] describes the l-1 -> l arc
	var prev *tflux.Thread
	var prevN int
	for l := 0; l < layers; l++ {
		n := 1 + r.Intn(6)
		counts[l] = n
		l := l
		th := p.Thread(tflux.ThreadID(l+1), fmt.Sprintf("layer%d", l), func(ctx tflux.Context) {
			rec.hit(fmt.Sprintf("L%d.%d", l, ctx))
		}).Instances(tflux.Context(n)).
			Access(func(tflux.Context) []tflux.MemRegion {
				return []tflux.MemRegion{{Buffer: "pad", Size: 64, Write: true}}
			})
		if prev != nil {
			switch r.Intn(3) {
			case 0:
				if prevN == n {
					prev.Then(th.ID(), tflux.OneToOne{})
					arcs[l] = arcInfo{kind: 0}
				} else {
					prev.Then(th.ID(), tflux.OneToAll{})
					arcs[l] = arcInfo{kind: 2}
				}
			case 1:
				tgt := r.Intn(n)
				prev.Then(th.ID(), tflux.AllToOne{Target: tflux.Context(tgt)})
				arcs[l] = arcInfo{kind: 1, target: tgt}
			default:
				prev.Then(th.ID(), tflux.OneToAll{})
				arcs[l] = arcInfo{kind: 2}
			}
		}
		prev, prevN = th, n
	}
	bufs := tflux.NewCellBuffers()
	bufs.Register("pad", byteview.Bytes(pad))

	check := func(t *testing.T, platform string) {
		t.Helper()
		rec.mu.Lock()
		defer rec.mu.Unlock()
		total := 0
		for l, n := range counts {
			total += n
			for c := 0; c < n; c++ {
				tag := fmt.Sprintf("L%d.%d", l, c)
				if rec.seen[tag] != 1 {
					t.Fatalf("%s: %s ran %d times", platform, tag, rec.seen[tag])
				}
			}
		}
		if len(rec.order) != total {
			t.Fatalf("%s: %d executions, want %d", platform, len(rec.order), total)
		}
		// Check exactly what each arc kind guarantees (AllToOne only
		// orders its target instance; its siblings are legal sources).
		pos := map[string]int{}
		for i, tag := range rec.order {
			pos[tag] = i
		}
		lastOf := func(l int) int {
			last := -1
			for c := 0; c < counts[l]; c++ {
				if p := pos[fmt.Sprintf("L%d.%d", l, c)]; p > last {
					last = p
				}
			}
			return last
		}
		for l := 1; l < layers; l++ {
			switch arcs[l].kind {
			case 0: // one-to-one: (l,c) before (l+?,c)
				for c := 0; c < counts[l]; c++ {
					before := pos[fmt.Sprintf("L%d.%d", l-1, c)]
					after := pos[fmt.Sprintf("L%d.%d", l, c)]
					if after < before {
						t.Fatalf("%s: L%d.%d ran before its one-to-one producer", platform, l, c)
					}
				}
			case 1: // all-to-one: target after every producer
				tgt := pos[fmt.Sprintf("L%d.%d", l, arcs[l].target)]
				if tgt < lastOf(l-1) {
					t.Fatalf("%s: layer %d reduction target ran before all of layer %d", platform, l, l-1)
				}
			case 2: // one-to-all barrier: everything after everything
				last := lastOf(l - 1)
				for c := 0; c < counts[l]; c++ {
					if pos[fmt.Sprintf("L%d.%d", l, c)] < last {
						t.Fatalf("%s: L%d.%d crossed the layer barrier", platform, l, c)
					}
				}
			}
		}
	}
	return p, bufs, check
}

// TestPlatformEquivalenceRandomPrograms runs the same random programs on
// six in-process platform configurations and on TFluxDist and checks each
// executes every instance exactly once with consistent layer ordering —
// the paper's portability claim as a property test over the public API.
func TestPlatformEquivalenceRandomPrograms(t *testing.T) {
	platforms := []struct {
		name string
		run  func(p *tflux.Program, bufs *tflux.CellBuffers) error
	}{
		{"soft", func(p *tflux.Program, _ *tflux.CellBuffers) error {
			_, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 3})
			return err
		}},
		{"soft-sharded", func(p *tflux.Program, _ *tflux.CellBuffers) error {
			_, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 3, TSUShards: 3})
			return err
		}},
		{"soft-sharded-uneven", func(p *tflux.Program, _ *tflux.CellBuffers) error {
			_, err := tflux.RunSoft(p, tflux.SoftOptions{Kernels: 5, TSUShards: 2})
			return err
		}},
		{"hard", func(p *tflux.Program, _ *tflux.CellBuffers) error {
			_, err := tflux.RunHard(p, tflux.HardConfig{Cores: 3})
			return err
		}},
		{"cell", func(p *tflux.Program, bufs *tflux.CellBuffers) error {
			_, err := tflux.RunCell(p, bufs, tflux.CellConfig{SPEs: 3})
			return err
		}},
		{"virtual", func(p *tflux.Program, _ *tflux.CellBuffers) error {
			_, err := tflux.RunVirtual(p, tflux.VirtualConfig{Kernels: 3})
			return err
		}},
	}
	for seed := int64(0); seed < 12; seed++ {
		for _, pf := range platforms {
			// Fresh identical program per platform (same seed).
			r := rand.New(rand.NewSource(seed))
			rec := &recorder{seen: map[string]int{}}
			p, bufs, check := buildLayered(r, rec)
			if err := pf.run(p, bufs); err != nil {
				t.Fatalf("seed %d %s: %v", seed, pf.name, err)
			}
			check(t, fmt.Sprintf("seed %d %s", seed, pf.name))
		}

		// TFluxDist joins through its build-per-node contract: every node
		// replica is structurally identical (same seed) and the recorder
		// observes hits from all replicas.
		rec := &recorder{seen: map[string]int{}}
		var checkMu sync.Mutex
		var check func(*testing.T, string)
		build := func() (*tflux.Program, *tflux.CellBuffers) {
			r := rand.New(rand.NewSource(seed))
			p, bufs, c := buildLayered(r, rec)
			checkMu.Lock()
			check = c
			checkMu.Unlock()
			return p, bufs
		}
		if _, _, err := tflux.RunDistLocal(build, 2, 2); err != nil {
			t.Fatalf("seed %d dist: %v", seed, err)
		}
		check(t, fmt.Sprintf("seed %d dist", seed))
	}
}
