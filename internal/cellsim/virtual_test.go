package cellsim

import (
	"reflect"
	"sync/atomic"
	"testing"

	"tflux/internal/core"
	"tflux/internal/hardsim"
	"tflux/internal/sim"
	"tflux/internal/workload"
)

// importProgram is n DThreads that each import reg of a buffer "d" of
// size bytes, with bodies that count their runs and cost 1 µs.
func importProgram(n core.Context, size int64, reg core.MemRegion) (*core.Program, *core.SharedVariableBuffer, *atomic.Int64) {
	ran := new(atomic.Int64)
	p := core.NewProgram("import")
	p.AddBuffer("d", size)
	tpl := core.NewTemplate(1, "reader", func(core.Context) { ran.Add(1) })
	tpl.Instances = n
	tpl.Cost = func(core.Context) int64 { return 1000 }
	reg.Buffer = "d"
	tpl.Access = func(core.Context) []core.MemRegion { return []core.MemRegion{reg} }
	p.AddBlock().Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("d", make([]byte, size))
	return p, svb, ran
}

// TestVirtualCellRefusalParity: the virtual TFluxCell and Run refuse the
// same programs with the same text, before either runs a body, and run
// the programs that fit.
func TestVirtualCellRefusalParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int64 // of the buffer
		reg  core.MemRegion
		want string // "" when the program fits
	}{
		{"1 MiB resident import", 1 << 20, core.MemRegion{Size: 1 << 20}, "cellsim: DThread T1.0 needs 1048576 bytes of Local Store, only 229376 available (problem size does not fit the SPE Local Store; restructure as the paper's §6.3 notes)"},
		{"exactly the Local Store left for data", 229376, core.MemRegion{Size: 229376}, ""},
		{"one byte more", 229377, core.MemRegion{Size: 229377}, "cellsim: DThread T1.0 needs 229377 bytes of Local Store, only 229376 available (problem size does not fit the SPE Local Store; restructure as the paper's §6.3 notes)"},
		{"region outside its buffer", 16, core.MemRegion{Offset: 8, Size: 64}, `cellsim: DThread T1.0: region [8,+64) outside buffer "d" (16 bytes)`},
	} {
		p, svb, ran := importProgram(2, tc.size, tc.reg)
		_, runErr := Run(p, svb, Config{SPEs: 2})
		_, virtErr := RunVirtual(p, 2)
		for _, leg := range []struct {
			machine string
			err     error
		}{{"Run", runErr}, {"RunVirtual", virtErr}} {
			got := ""
			if leg.err != nil {
				got = leg.err.Error()
			}
			if got != tc.want {
				t.Errorf("%s: %s: err = %q, want %q", tc.name, leg.machine, got, tc.want)
			}
		}
		want := int64(4) // two instances on each machine
		if tc.want != "" {
			want = 0
		}
		if n := ran.Load(); n != want {
			t.Errorf("%s: %d bodies ran, want %d", tc.name, n, want)
		}
	}
}

// TestVirtualCellChargesDMA: a DThread streaming 1 MiB is charged 64
// transfers of 16 KiB at 1 µs each plus 2^20 B at 8 B/ns on top of what
// the same program costs without the region.
func TestVirtualCellChargesDMA(t *testing.T) {
	p, _, _ := importProgram(1, 1<<20, core.MemRegion{Size: 1 << 20, Stream: true})
	withDMA, err := RunVirtual(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	bare, _, _ := importProgram(1, 1<<20, core.MemRegion{Size: 1 << 20, Stream: true})
	bare.Blocks[0].Templates[0].Access = nil
	without, err := RunVirtual(bare, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, want := withDMA-without, sim.Time(64*1000+131072); d != want {
		t.Fatalf("makespan with the region - without = %d ns, want %d", d, want)
	}
}

// TestVirtualRunIsDeterministic: the virtual Cell's time comes from the
// Cost models and the access table, never from the host's clock, so two
// runs of one program read the same makespan, and the staged copy's
// bodies still write the output.
func TestVirtualRunIsDeterministic(t *testing.T) {
	var got [2]sim.Time
	for i := range got {
		job := workload.NewMMult(48)
		p, err := job.Build(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = RunVirtual(p, 3); err != nil {
			t.Fatal(err)
		}
		if err := job.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] {
		t.Errorf("two runs read %d and %d", got[0], got[1])
	}
}

// TestVirtualConfigDefaults pins the virtual Cell's machine and DMA
// prices: every virtual TFluxCell figure in EXPERIMENTS.md rests on them.
func TestVirtualConfigDefaults(t *testing.T) {
	want := hardsim.Config{Cores: 6, TSULat: 4000, MMILat: 1000, DecLat: 100, ServiceCost: 4000, Mem: freeMem}
	if got := Machine(6); !reflect.DeepEqual(got, want) {
		t.Errorf("Machine(6) = %+v, want %+v", got, want)
	}
	// 1 MiB in 16 KiB transfers: 64 × 1 µs setup + 2^20 B / 8 B/ns.
	if got := dmaTime([]core.MemRegion{{Size: 1 << 20}, {Size: 0}}); got != 64*1000+131072 {
		t.Errorf("dmaTime(1 MiB) = %d ns", got)
	}
	// A partial chunk is one more transfer.
	if got := dmaTime([]core.MemRegion{{Size: 16<<10 + 8}}); got != 2*1000+2049 {
		t.Errorf("dmaTime(16 KiB + 8) = %d ns", got)
	}
}
