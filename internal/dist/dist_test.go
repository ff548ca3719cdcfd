package dist

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"tflux/internal/byteview"
	"tflux/internal/core"
)

// distSum builds the distributed map+reduce used across these tests. Each
// call constructs fresh state (one replica per node, one canonical copy),
// as RunLocal requires. Every region is declared, because in distributed
// memory the declarations ARE the data movement.
func distSum(workers core.Context, perWorker int) func() (*core.Program, *core.SharedVariableBuffer) {
	return func() (*core.Program, *core.SharedVariableBuffer) {
		parts := make([]uint64, workers)
		out := make([]uint64, 1)
		p := core.NewProgram("distsum")
		p.AddBuffer("parts", int64(workers)*8)
		p.AddBuffer("out", 8)
		b := p.AddBlock()
		work := core.NewTemplate(1, "work", func(ctx core.Context) {
			var s uint64
			for i := 0; i < perWorker; i++ {
				s += uint64(ctx) + 1
			}
			parts[ctx] = s
		})
		work.Instances = workers
		work.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "parts", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		}
		reduce := core.NewTemplate(2, "reduce", func(core.Context) {
			var s uint64
			for _, v := range parts {
				s += v
			}
			out[0] = s
		})
		reduce.Access = func(core.Context) []core.MemRegion {
			return []core.MemRegion{
				{Buffer: "parts", Offset: 0, Size: int64(workers) * 8},
				{Buffer: "out", Offset: 0, Size: 8, Write: true},
			}
		}
		work.Then(2, core.AllToOne{})
		b.Add(work)
		b.Add(reduce)
		svb := core.NewSharedVariableBuffer()
		svb.Register("parts", byteview.Uint64s(parts))
		svb.Register("out", byteview.Uint64s(out))
		return p, svb
	}
}

func TestDistributedSum(t *testing.T) {
	for _, cfg := range []struct{ nodes, kernels int }{{1, 1}, {2, 2}, {3, 1}, {2, 4}} {
		st, svb, err := RunLocal(distSum(16, 1000), cfg.nodes, cfg.kernels)
		if err != nil {
			t.Fatalf("nodes=%d kernels=%d: %v", cfg.nodes, cfg.kernels, err)
		}
		got := binary.LittleEndian.Uint64(svb.Bytes("out"))
		var want uint64
		for c := 1; c <= 16; c++ {
			want += uint64(c) * 1000
		}
		if got != want {
			t.Fatalf("nodes=%d: sum = %d, want %d", cfg.nodes, got, want)
		}
		var executed int64
		for _, n := range st.Nodes {
			executed += n.Executed
		}
		if executed != 17 {
			t.Fatalf("nodes=%d: executed = %d, want 17", cfg.nodes, executed)
		}
		if st.BytesOut == 0 || st.BytesIn == 0 {
			t.Fatalf("no data moved: %+v", st)
		}
		if st.TSU.Inlets != 1 || st.TSU.Outlets != 1 {
			t.Fatalf("inlets/outlets = %d/%d", st.TSU.Inlets, st.TSU.Outlets)
		}
	}
}

// TestDistributedAddressSpaceIsolation proves the replicas are genuinely
// separate: a consumer that does NOT declare an import reads its node's
// stale replica, not the producer's write — the distributed-memory
// behaviour the import/export contract exists for. With the import
// declared, the value arrives.
func TestDistributedAddressSpaceIsolation(t *testing.T) {
	build := func(declareImport bool) func() (*core.Program, *core.SharedVariableBuffer) {
		return func() (*core.Program, *core.SharedVariableBuffer) {
			x := make([]uint64, 1)
			seen := make([]uint64, 1)
			p := core.NewProgram("iso")
			p.AddBuffer("x", 8)
			p.AddBuffer("seen", 8)
			b := p.AddBlock()
			// Producer pinned to kernel 0 (node 0); consumer to the last
			// kernel (node 1), so the write happens in another replica.
			prod := core.NewTemplate(1, "prod", func(core.Context) { x[0] = 99 })
			prod.Affinity = 0
			prod.Access = func(core.Context) []core.MemRegion {
				return []core.MemRegion{{Buffer: "x", Size: 8, Write: true}}
			}
			cons := core.NewTemplate(2, "cons", func(core.Context) { seen[0] = x[0] })
			cons.Affinity = 1
			regs := []core.MemRegion{{Buffer: "seen", Size: 8, Write: true}}
			if declareImport {
				regs = append(regs, core.MemRegion{Buffer: "x", Size: 8})
			}
			cons.Access = func(core.Context) []core.MemRegion { return regs }
			prod.Then(2, core.AllToOne{})
			b.Add(prod)
			b.Add(cons)
			svb := core.NewSharedVariableBuffer()
			svb.Register("x", byteview.Uint64s(x))
			svb.Register("seen", byteview.Uint64s(seen))
			return p, svb
		}
	}
	// Without the import declaration the consumer sees 0 (stale replica).
	_, svb, err := RunLocal(build(false), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(svb.Bytes("seen")); got != 0 {
		t.Fatalf("undeclared import saw %d — replicas are not isolated", got)
	}
	// With it, the value flows through the coordinator.
	_, svb, err = RunLocal(build(true), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(svb.Bytes("seen")); got != 99 {
		t.Fatalf("declared import saw %d, want 99", got)
	}
}

func TestDistributedMultiBlock(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		x := make([]uint64, 1)
		p := core.NewProgram("mb")
		p.AddBuffer("x", 8)
		b0 := p.AddBlock()
		t0 := core.NewTemplate(1, "w", func(core.Context) { x[0] = 21 })
		t0.Access = func(core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "x", Size: 8, Write: true}}
		}
		b0.Add(t0)
		b1 := p.AddBlock()
		t1 := core.NewTemplate(2, "m", func(core.Context) { x[0] *= 2 })
		t1.Access = func(core.Context) []core.MemRegion {
			return []core.MemRegion{
				{Buffer: "x", Size: 8},
				{Buffer: "x", Size: 8, Write: true},
			}
		}
		b1.Add(t1)
		svb := core.NewSharedVariableBuffer()
		svb.Register("x", byteview.Uint64s(x))
		return p, svb
	}
	_, svb, err := RunLocal(build, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(svb.Bytes("x")); got != 42 {
		t.Fatalf("x = %d, want 42", got)
	}
}

func TestDistributedBodyPanicSurfaces(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("boom")
		p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) { panic("remote bang") }))
		return p, core.NewSharedVariableBuffer()
	}
	_, _, err := RunLocal(build, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "remote bang") {
		t.Fatalf("err = %v", err)
	}
}

func TestDistributedUnregisteredBufferRejected(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("missing")
		p.AddBuffer("ghost", 8)
		p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) {}))
		return p, core.NewSharedVariableBuffer()
	}
	_, _, err := RunLocal(build, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "registered with") {
		t.Fatalf("err = %v", err)
	}
}

func TestCoordinateNoConns(t *testing.T) {
	p := core.NewProgram("none")
	p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) {}))
	if _, err := CoordinateOpts(p, core.NewSharedVariableBuffer(), nil, Options{}); err == nil {
		t.Fatal("no-conn coordinate accepted")
	}
}

func TestRegionHelpers(t *testing.T) {
	buf := make([]byte, 16)
	svb := core.NewSharedVariableBuffer()
	svb.Register("b", buf)
	rd, err := readRegion(svb, core.MemRegion{Buffer: "b", Offset: 4, Size: 8})
	if err != nil || len(rd.Data) != 8 || rd.Offset != 4 {
		t.Fatalf("readRegion = %+v, %v", rd, err)
	}
	if _, err := readRegion(svb, core.MemRegion{Buffer: "b", Offset: 12, Size: 8}); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := writeRegion(svb, RegionData{Buffer: "b", Offset: 8, Data: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if buf[8] != 1 || buf[9] != 2 {
		t.Fatal("write not applied")
	}
	if err := writeRegion(svb, RegionData{Buffer: "b", Offset: 15, Data: []byte{1, 2}}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestDistributedHeavierLoad(t *testing.T) {
	// Larger fan-out with small mailboxes of work per node.
	st, svb, err := RunLocal(distSum(128, 50), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint64(svb.Bytes("out"))
	var want uint64
	for c := 1; c <= 128; c++ {
		want += uint64(c) * 50
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// Work must actually spread across nodes.
	busy := 0
	for _, n := range st.Nodes {
		if n.Executed > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d of 4 nodes executed work: %+v", busy, st.Nodes)
	}
}

// misbehave dials the coordinator and sends a malformed frame after the
// handshake; the coordinator must fail cleanly rather than hang.
func TestCoordinatorRejectsProtocolViolation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		l := newLink(conn)
		l.sendHello(1) //nolint:errcheck
		// A Hello where a DoneBatch is expected is a protocol violation.
		l.sendHello(1) //nolint:errcheck
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProgram("proto")
	tpl := core.NewTemplate(1, "x", func(core.Context) {})
	p.AddBlock().Add(tpl)
	_, err = CoordinateOpts(p, core.NewSharedVariableBuffer(), []net.Conn{conn}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unexpected frame") {
		t.Fatalf("err = %v", err)
	}
}

// TestCoordinatorSurvivesWorkerDisconnect: a worker that drops its
// connection mid-run must abort the run with an error, not deadlock.
func TestCoordinatorSurvivesWorkerDisconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		l := newLink(conn)
		l.sendHello(1) //nolint:errcheck
		// Read the first ExecBatch, then vanish.
		l.recv() //nolint:errcheck
		conn.Close()
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProgram("drop")
	tpl := core.NewTemplate(1, "x", func(core.Context) {})
	tpl.Instances = 4
	p.AddBlock().Add(tpl)
	_, err = CoordinateOpts(p, core.NewSharedVariableBuffer(), []net.Conn{conn}, Options{})
	if err == nil {
		t.Fatal("worker disconnect went unnoticed")
	}
}
