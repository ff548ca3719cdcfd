package cellsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// stageSum builds a map+reduce over a real shared byte buffer: workers
// write their partial sums as little-endian uint64s, the reducer adds
// them. Every region is declared so the Cell substrate stages it.
func stageSum(workers core.Context, perWorker int) (*core.Program, *core.SharedVariableBuffer, *uint64) {
	parts := make([]byte, int(workers)*8)
	result := new(uint64)
	p := core.NewProgram("cellsum")
	p.AddBuffer("parts", int64(len(parts)))
	b := p.AddBlock()
	work := core.NewTemplate(1, "work", func(ctx core.Context) {
		var s uint64
		for i := 0; i < perWorker; i++ {
			s += uint64(ctx)
		}
		binary.LittleEndian.PutUint64(parts[int(ctx)*8:], s)
	})
	work.Instances = workers
	work.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "parts", Offset: int64(ctx) * 8, Size: 8, Write: true}}
	}
	reduce := core.NewTemplate(2, "reduce", func(core.Context) {
		var s uint64
		for w := core.Context(0); w < workers; w++ {
			s += binary.LittleEndian.Uint64(parts[int(w)*8:])
		}
		*result = s
	})
	reduce.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "parts", Offset: 0, Size: int64(workers) * 8, Write: false}}
	}
	work.Then(2, core.AllToOne{})
	b.Add(work)
	b.Add(reduce)
	svb := core.NewSharedVariableBuffer()
	svb.Register("parts", parts)
	return p, svb, result
}

func TestCellRunFunctional(t *testing.T) {
	p, svb, result := stageSum(12, 1000)
	st, err := Run(p, svb, Config{SPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for c := 0; c < 12; c++ {
		want += uint64(c) * 1000
	}
	if *result != want {
		t.Fatalf("sum = %d, want %d", *result, want)
	}
	if st.DMABytesIn == 0 || st.DMABytesOut == 0 {
		t.Fatalf("no DMA traffic recorded: %+v", st)
	}
	if st.TSU.Inlets != 1 || st.TSU.Outlets != 1 {
		t.Fatalf("inlets/outlets = %d/%d", st.TSU.Inlets, st.TSU.Outlets)
	}
	if st.LSHighWater != 12*8 { // the reducer's import
		t.Fatalf("LS high water = %d, want %d", st.LSHighWater, 12*8)
	}
	var exec int64
	for _, s := range st.SPEs {
		exec += s.Executed
	}
	if exec != 13 {
		t.Fatalf("executed = %d, want 13", exec)
	}
}

func TestCellLocalStoreCapacityEnforced(t *testing.T) {
	big := make([]byte, 512<<10)
	p := core.NewProgram("big")
	p.AddBuffer("big", int64(len(big)))
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "huge", func(core.Context) {})
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "big", Offset: 0, Size: int64(len(big)), Write: false}}
	}
	b.Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("big", big)
	_, err := Run(p, svb, Config{SPEs: 2})
	if err == nil || !strings.Contains(err.Error(), "Local Store") {
		t.Fatalf("err = %v, want Local Store capacity error", err)
	}
}

func TestCellUnregisteredBufferRejected(t *testing.T) {
	p, _, _ := stageSum(4, 10)
	_, err := Run(p, core.NewSharedVariableBuffer(), Config{SPEs: 2})
	if err == nil || !strings.Contains(err.Error(), "registered with") {
		t.Fatalf("err = %v, want registration error", err)
	}
}

func TestCellRegionBoundsChecked(t *testing.T) {
	for name, reg := range map[string]core.MemRegion{
		"past the end":    {Buffer: "x", Offset: 8, Size: 64},
		"wrapping offset": {Buffer: "x", Offset: math.MaxInt64, Size: 1}, // Offset+Size < 0
		"wrapping export": {Buffer: "x", Offset: math.MaxInt64, Size: 1, Write: true},
	} {
		p := core.NewProgram("oob")
		p.AddBuffer("x", 16)
		b := p.AddBlock()
		tpl := core.NewTemplate(1, "bad", func(core.Context) {})
		tpl.Access = func(core.Context) []core.MemRegion { return []core.MemRegion{reg} }
		b.Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("x", make([]byte, 16))
		_, err := Run(p, svb, Config{SPEs: 1})
		if err == nil || !strings.Contains(err.Error(), "outside buffer") {
			t.Errorf("%s: err = %v, want bounds error", name, err)
		}
	}
}

func TestCellBodyPanicSurfaces(t *testing.T) {
	p := core.NewProgram("boom")
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "x", func(core.Context) { panic("cell bang") })
	tpl.Instances = 4
	b.Add(tpl)
	_, err := Run(p, core.NewSharedVariableBuffer(), Config{SPEs: 2})
	if err == nil || !strings.Contains(err.Error(), "cell bang") {
		t.Fatalf("err = %v", err)
	}
}

func TestCellTinyQueuesNoDeadlock(t *testing.T) {
	// 512 fine-grained DThreads through two SPEs' ready queues (their
	// mailboxes): most instances are queued behind others, and each
	// completion comes back through the PPE's TUB.
	p, svb, result := stageSum(512, 10)
	st, err := Run(p, svb, Config{SPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for c := 0; c < 512; c++ {
		want += uint64(c) * 10
	}
	if *result != want {
		t.Fatalf("sum = %d, want %d", *result, want)
	}
	// The TKT splits the workers in halves; the reducer runs on SPE 0.
	if st.SPEs[0].Executed != 257 || st.SPEs[1].Executed != 256 {
		t.Fatalf("SPEs executed %d and %d, want 257 and 256", st.SPEs[0].Executed, st.SPEs[1].Executed)
	}
}

func TestCellDMAChunking(t *testing.T) {
	// A 40 KB import at 16 KB DMA chunks needs 3 transfers.
	data := make([]byte, 40<<10)
	p := core.NewProgram("chunks")
	p.AddBuffer("d", int64(len(data)))
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "r", func(core.Context) {})
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "d", Offset: 0, Size: int64(len(data)), Write: false}}
	}
	b.Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("d", data)
	st, err := Run(p, svb, Config{SPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.DMATransfers != 3 {
		t.Fatalf("transfers = %d, want 3", st.DMATransfers)
	}
	if st.DMABytesIn != int64(len(data)) {
		t.Fatalf("bytes in = %d, want %d", st.DMABytesIn, len(data))
	}
}

func TestCellMultiBlock(t *testing.T) {
	x := make([]byte, 8)
	p := core.NewProgram("mb")
	p.AddBuffer("x", 8)
	b0 := p.AddBlock()
	t0 := core.NewTemplate(1, "w", func(core.Context) { binary.LittleEndian.PutUint64(x, 21) })
	t0.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "x", Size: 8, Write: true}}
	}
	b0.Add(t0)
	b1 := p.AddBlock()
	t1 := core.NewTemplate(2, "m", func(core.Context) {
		binary.LittleEndian.PutUint64(x, binary.LittleEndian.Uint64(x)*2)
	})
	t1.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "x", Size: 8, Write: false}, {Buffer: "x", Size: 8, Write: true}}
	}
	b1.Add(t1)
	svb := core.NewSharedVariableBuffer()
	svb.Register("x", x)
	if _, err := Run(p, svb, Config{SPEs: 3}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(x); got != 42 {
		t.Fatalf("x = %d, want 42", got)
	}
}

// TestCellRefusesBeforeAnyBody: a program whose first Block fits and
// whose second does not — it overflows the Local Store, or reaches past
// its buffer — runs no body at all on either Cell machine, because the
// whole program is checked before any SPE starts.
func TestCellRefusesBeforeAnyBody(t *testing.T) {
	const size = 256 << 10
	for _, tc := range []struct {
		late core.MemRegion
		want string
	}{
		{core.MemRegion{Size: size}, "DThread T2.0 needs 262144 bytes of Local Store"},
		{core.MemRegion{Offset: size - 8, Size: 64}, `DThread T2.0: region [262136,+64) outside buffer "d" (262144 bytes)`},
	} {
		var ran atomic.Int64
		p := core.NewProgram("late")
		p.AddBuffer("d", size)
		for id, reg := range []core.MemRegion{{Size: 8}, tc.late} {
			tpl := core.NewTemplate(core.ThreadID(id+1), "reader", func(core.Context) { ran.Add(1) })
			reg.Buffer = "d"
			tpl.Access = func(core.Context) []core.MemRegion { return []core.MemRegion{reg} }
			p.AddBlock().Add(tpl)
		}
		svb := core.NewSharedVariableBuffer()
		svb.Register("d", make([]byte, size))
		_, runErr := Run(p, svb, Config{SPEs: 2})
		_, virtErr := RunVirtual(p, 2)
		for _, err := range []error{runErr, virtErr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want the second Block's refusal %q", err, tc.want)
			}
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%q: %d bodies ran before the refusal, want 0", tc.want, n)
		}
	}
}

func TestCellStreamedRegionBypassesCapacity(t *testing.T) {
	// A 1 MB streamed import must run on a 256 KB Local Store, staged
	// through the double-buffered DMA window.
	big := make([]byte, 1<<20)
	p := core.NewProgram("stream")
	p.AddBuffer("big", int64(len(big)))
	b := p.AddBlock()
	tpl := core.NewTemplate(1, "streamer", func(core.Context) {})
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "big", Offset: 0, Size: int64(len(big)), Stream: true}}
	}
	b.Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("big", big)
	st, err := Run(p, svb, Config{SPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.DMABytesIn != 1<<20 {
		t.Fatalf("bytes in = %d, want 1 MiB", st.DMABytesIn)
	}
	if st.DMATransfers != 64 { // 1 MiB / 16 KiB
		t.Fatalf("transfers = %d, want 64", st.DMATransfers)
	}
	// Footprint is the 2x16 KiB stream window, not the 1 MiB region.
	if st.LSHighWater != 32<<10 {
		t.Fatalf("high water = %d, want 32 KiB", st.LSHighWater)
	}
}

func TestCellReserveConfig(t *testing.T) {
	// The Local Store minus the reserve holds exactly 224 KiB of resident
	// data: one byte more must be refused.
	run := func(size int64) error {
		data := make([]byte, size)
		p := core.NewProgram("reserve")
		p.AddBuffer("d", size)
		tpl := core.NewTemplate(1, "r", func(core.Context) {})
		tpl.Access = func(core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "d", Size: size}}
		}
		p.AddBlock().Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("d", data)
		_, err := Run(p, svb, Config{SPEs: 1})
		return err
	}
	if err := run(224 << 10); err != nil {
		t.Fatalf("224 KiB resident: %v", err)
	}
	if err := run(224<<10 + 1); err == nil || !strings.Contains(err.Error(), "only 229376 available") {
		t.Fatalf("224 KiB + 1 resident: err = %v, want Local Store capacity error", err)
	}
}

// TestCellDefaults pins the simulated SPE to the PlayStation 3 the paper
// evaluates (§4.3).
func TestCellDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.SPEs != 6 {
		t.Fatalf("SPEs = %d, want the PS3's 6", c.SPEs)
	}
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"Local Store", localStore, 256 << 10},
		{"reserve", reserve, 32 << 10},
		{"DMA transfer", dmaChunk, 16 << 10},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestCellMovesWhatTheTableSays pins what a run moves, whatever runs it:
// the DMA totals are the sums over the program's access-table rows, split
// into transfers at dmaChunk, and each SPE executes, and stages the rows
// of, exactly the instances the TKT gives it. Every instance and each
// Block's Inlet and Outlet is one command.
func TestCellMovesWhatTheTableSays(t *testing.T) {
	for _, name := range []string{"TRAPEZ", "MMULT", "QSORT", "SUSAN"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes, _ := spec.Sizes(workload.Cell)
		for _, spes := range []int{1, 2, 6} {
			t.Run(fmt.Sprintf("%s/%d", name, spes), func(t *testing.T) {
				job := spec.Make(sizes[workload.Small])
				job.RunSequential()
				p, err := job.Build(spes, 8)
				if err != nil {
					t.Fatal(err)
				}
				st, err := Run(p, job.SharedBuffers(), Config{SPEs: spes})
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Verify(); err != nil {
					t.Fatal(err)
				}
				owner, err := tsu.NewState(p, spes)
				if err != nil {
					t.Fatal(err)
				}
				defer owner.Release()
				want := Stats{SPEs: make([]SPEStats, spes)}
				var instances int64
				for _, b := range p.Blocks {
					for _, tpl := range b.Templates {
						for ctx := core.Context(0); ctx < tpl.Instances; ctx++ {
							inst := core.Instance{Thread: tpl.ID, Ctx: ctx}
							spe := &want.SPEs[owner.KernelOf(inst)]
							spe.Executed++
							instances++
							for _, reg := range p.AccessTable().Row(inst) {
								if reg.Size <= 0 {
									continue
								}
								if reg.Write {
									want.DMABytesOut += reg.Size
								} else {
									want.DMABytesIn += reg.Size
								}
								want.DMATransfers += (reg.Size + dmaChunk - 1) / dmaChunk
								spe.DMABytes += reg.Size
							}
						}
					}
				}
				want.Commands = instances + 2*int64(len(p.Blocks))
				if st.DMABytesIn != want.DMABytesIn || st.DMABytesOut != want.DMABytesOut || st.DMATransfers != want.DMATransfers {
					t.Errorf("DMA in/out/transfers = %d/%d/%d, the table says %d/%d/%d",
						st.DMABytesIn, st.DMABytesOut, st.DMATransfers, want.DMABytesIn, want.DMABytesOut, want.DMATransfers)
				}
				if st.Commands != want.Commands {
					t.Errorf("commands = %d, want %d instances + 2 × %d Blocks", st.Commands, instances, len(p.Blocks))
				}
				for k := range want.SPEs {
					if st.SPEs[k] != want.SPEs[k] {
						t.Errorf("SPE %d: %+v, its TKT share is %+v", k, st.SPEs[k], want.SPEs[k])
					}
				}
			})
		}
	}
}

// firstOnly is a Mapping at odds with itself: every producer context
// enables consumer 0, while its InDegree (OneToOne's) says each consumer
// waits for one producer.
type firstOnly struct{ core.OneToOne }

func (firstOnly) AppendTargets(dst []core.Context, _, _, _ core.Context) []core.Context {
	return append(dst, 0)
}

// panicsAt3 is a one-to-one Mapping whose arc expansion panics at
// producer context 3.
type panicsAt3 struct{ core.OneToOne }

func (panicsAt3) AppendTargets(dst []core.Context, pctx, _, _ core.Context) []core.Context {
	if pctx == 3 {
		panic("mapping bang")
	}
	return append(dst, pctx)
}

// TestCellBrokenProgramFails: a program that breaks the TSU mid-run, by
// over-delivering to a consumer or by a Mapping that panics while the
// completion's arcs are expanded, ends cellsim.Run with an error naming
// what broke, not the process.
func TestCellBrokenProgramFails(t *testing.T) {
	for _, tc := range []struct {
		arcs core.Mapping
		want []string
	}{
		{firstOnly{}, []string{"TSU violation", "ready count of T2.0 went negative"}},
		{panicsAt3{}, []string{"T1.3", "mapping bang"}},
	} {
		prod := core.NewTemplate(1, "prod", func(core.Context) {})
		prod.Instances = 4
		prod.Then(2, tc.arcs)
		cons := core.NewTemplate(2, "cons", func(core.Context) {})
		cons.Instances = 4
		p := core.NewProgram("broken")
		b := p.AddBlock()
		b.Add(prod)
		b.Add(cons)
		_, err := Run(p, core.NewSharedVariableBuffer(), Config{SPEs: 2})
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v: err = %v, want it to name %q", tc.arcs, err, want)
			}
		}
	}
}
