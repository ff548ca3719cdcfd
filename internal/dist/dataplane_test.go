package dist

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
)

// readFrame reads and decodes one frame from br into a fresh receive
// buffer, with an intern table of its own.
func readFrame(br *bufio.Reader) (frame, error) {
	return decodeFrame(br, new(rxBuf), make(map[string]string))
}

// sendDoneBatch sends dones as one DoneBatch frame, encoded the way a
// worker's writer encodes them: one appendDone record per Done.
func (l *link) sendDoneBatch(dones []Done) error {
	recs := make([]*[]byte, len(dones))
	for i := range dones {
		rec := appendDone(nil, &dones[i])
		recs[i] = &rec
	}
	return l.sendDoneRecords(recs)
}

// poisonRecycled turns on, for the rest of t, the release hook that
// overwrites every released receive buffer: any frame read after its
// release then reads 0xA5 bytes and impossible records instead of the
// next frame's, and the test's byte checks fail. The Fleet's freed leases
// are overwritten too, with node and generation −1 and an instance no
// program has, so a lease read after it was recycled indexes out of range
// or matches no Done or timer. A test during which no buffer was poisoned
// fails too.
func poisonRecycled(t *testing.T) {
	t.Helper()
	before := setPoisonReleased(true)
	t.Cleanup(func() {
		if setPoisonReleased(false) == before {
			t.Error("no released receive buffer was poisoned")
		}
	})
}

// fakeExecutor is a fakeWorker script that answers Pings, stops at
// Shutdown and hands every ExecBatch to reply, releasing each frame once
// handled.
func fakeExecutor(reply func(l *link, execs []Exec)) func(l *link) {
	return func(l *link) {
		for {
			f, err := l.recv()
			if err != nil || f.typ == ftShutdown {
				return
			}
			switch f.typ {
			case ftPing:
				l.sendPong(f.seq) //nolint:errcheck
			case ftExecBatch:
				reply(l, f.execs)
			}
			f.rx.release()
		}
	}
}

// steadyRegion is the region size TestWorkerSteadyStateAllocs imports and
// exports per instance: FFT's column phase moves 16-byte regions.
const steadyRegion = 16

// steadyProgram has n instances, each importing in[ctx] and exporting
// out[ctx] = in[ctx] + 1, byte by byte, over regions of steadyRegion bytes.
func steadyProgram(n int) (*core.Program, *core.SharedVariableBuffer) {
	in, out := make([]byte, n*steadyRegion), make([]byte, n*steadyRegion)
	p := core.NewProgram("steady")
	p.AddBuffer("in", int64(len(in)))
	p.AddBuffer("out", int64(len(out)))
	tpl := core.NewTemplate(1, "inc", func(ctx core.Context) {
		for i := int(ctx) * steadyRegion; i < int(ctx+1)*steadyRegion; i++ {
			out[i] = in[i] + 1
		}
	})
	tpl.Instances = core.Context(n)
	tpl.Access = func(ctx core.Context) []core.MemRegion {
		off := int64(ctx) * steadyRegion
		return []core.MemRegion{
			{Buffer: "in", Offset: off, Size: steadyRegion},
			{Buffer: "out", Offset: off, Size: steadyRegion, Write: true},
		}
	}
	p.AddBlock().Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("in", in)
	svb.Register("out", out)
	return p, svb
}

// workerSteadyAllocsCeiling bounds what one warm Exec costs a worker and
// the link driving it: the receive buffer, the Done record, the frame
// buffers and the region cache entry are all recycled, so it is 0 as
// measured.
const workerSteadyAllocsCeiling = 0.05

// TestWorkerSteadyStateAllocs drives a pooled replica over a pipe, as
// TestWorkerReplicaPool does, and bounds the allocations of a warm Exec:
// one import shipped in full and cached, one body, one export encoded
// straight from the replica, on a replica recycled from an earlier
// session, with the test side releasing every frame it reads.
func TestWorkerSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops frame buffers under the race detector")
	}
	const n = 64
	c1, c2 := net.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeFleet(c2, 1, func(ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
			p, svb := steadyProgram(n)
			return p, svb, nil
		})
	}()
	l := newLink(c1)
	c1.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if fr, err := l.recv(); err != nil || fr.typ != ftHello {
		t.Fatalf("handshake: %v %v", fr.typ, err)
	}

	payload := make([]byte, n*steadyRegion)
	for i := range payload {
		payload[i] = byte(i)
	}
	execs := make([]Exec, n)
	var prog uint32
	round := func() {
		for i := range execs {
			off := int64(i) * steadyRegion
			execs[i] = Exec{Prog: prog, Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}, Imports: execs[i].Imports[:0]}
			execs[i].Imports = append(execs[i].Imports, RegionData{Buffer: "in", Offset: off, Data: payload[off : off+steadyRegion], Ver: 1, Size: steadyRegion})
		}
		if err := l.sendExecBatch(execs); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < n; {
			fr, err := l.recv()
			if err != nil || fr.typ != ftDoneBatch {
				t.Fatalf("want a DoneBatch, got %v %v", fr.typ, err)
			}
			for _, d := range fr.dones {
				ex := d.Exports
				if d.Err != "" || len(ex) != 1 || ex[0].Data[0] != payload[ex[0].Offset]+1 {
					t.Fatalf("Done %+v", d)
				}
			}
			got += len(fr.dones)
			fr.rx.release()
		}
	}
	session := func() {
		prog++
		if err := l.sendOpenProg(prog, ProgramSpec{Name: "steady"}, true); err != nil {
			t.Fatal(err)
		}
		round()
	}
	session() // builds the replica and its access rows
	if err := l.sendCloseProg(prog); err != nil {
		t.Fatal(err)
	}
	session() // recycles it: every cache entry invalidated, its storage kept
	perExec := testing.AllocsPerRun(50, round) / n
	t.Logf("warm Exec on a pooled replica: %.3f allocs", perExec)
	if perExec > workerSteadyAllocsCeiling {
		t.Fatalf("a warm Exec allocates %.3f times, want <= %v", perExec, workerSteadyAllocsCeiling)
	}
	if err := l.sendShutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	c1.Close()
}

// TestBytesOutCountsOnlySentExecs: an ExecBatch entry scrubbed because its
// session failed is never sent, so it must not reach dist.bytes_out. Here
// one DoneBatch completes A(0) — readying B(0), whose 16 import bytes are
// staged on the node — and fails A(1), which closes the session and
// scrubs B(0). The next session's bytes are the only ones the worker
// reads, and the counter must say so.
func TestBytesOutCountsOnlySentExecs(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("scrub")
		p.AddBuffer("in", 32)
		p.AddBuffer("out", 32)
		a := core.NewTemplate(1, "a", func(core.Context) {})
		a.Instances = 2
		a.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "out", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		}
		a.Then(2, core.OneToOne{})
		b := core.NewTemplate(2, "b", func(core.Context) {})
		b.Instances = 2
		b.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{
				{Buffer: "in", Offset: int64(ctx) * 16, Size: 16},
				{Buffer: "out", Offset: 16 + int64(ctx)*8, Size: 8, Write: true},
			}
		}
		blk := p.AddBlock()
		blk.Add(a)
		blk.Add(b)
		svb := core.NewSharedVariableBuffer()
		svb.Register("in", make([]byte, 32))
		svb.Register("out", make([]byte, 32))
		return p, svb
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var read atomic.Int64 // import payload bytes the worker received
	first := true
	fakeWorker(t, ln, 1, fakeExecutor(func(l *link, execs []Exec) {
		dones := make([]Done, len(execs))
		for i, ex := range execs {
			for _, rd := range ex.Imports {
				read.Add(int64(len(rd.Data)))
			}
			dones[i] = Done{Prog: ex.Prog, Inst: ex.Inst}
		}
		if first {
			first = false
			if len(dones) != 2 {
				t.Errorf("first ExecBatch carries %d Execs, want A(0) and A(1)", len(dones))
				return
			}
			dones[1].Err = "injected failure"
		}
		l.sendDoneBatch(dones) //nolint:errcheck
	}))
	conns := acceptN(t, ln, 1)
	opt := fastFailover()
	opt.Metrics = obs.NewRegistry()
	f, err := NewFleet(conns, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck

	prog, svb := build()
	if _, err := f.Run(prog, svb); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("first session: err = %v, want the injected failure", err)
	}
	prog, svb = build()
	if _, err := f.Run(prog, svb); err != nil {
		t.Fatalf("second session: %v", err)
	}
	if got := read.Load(); got != 32 {
		t.Fatalf("worker read %d import bytes, want B(0) and B(1) of the second session, 32", got)
	}
	if got := opt.Metrics.Counter("dist.bytes_out").Value(); got != read.Load() {
		t.Fatalf("dist.bytes_out = %d, but the worker read %d import bytes", got, read.Load())
	}
}

// TestPermutedExportsApplied: handleDone holds export i to the i-th
// declared export first and searches the whole declaration only when that
// fails. A worker that sends an instance's exports out of order takes the
// search; the bytes, BytesIn and the node's standing must be exactly those
// of exports in order.
func TestPermutedExportsApplied(t *testing.T) {
	const insts = 2
	run := func(permute bool) (*Stats, []byte) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		fakeWorker(t, ln, 1, fakeExecutor(func(l *link, execs []Exec) {
			dones := make([]Done, len(execs))
			for i, ex := range execs {
				// Two 8-byte exports per instance, each filled with its
				// offset + 1, declared low half first.
				var exports []RegionData
				for half := int64(0); half < 2; half++ {
					off := int64(ex.Inst.Ctx)*16 + half*8
					exports = append(exports, RegionData{Buffer: "out", Offset: off, Data: bytes.Repeat([]byte{byte(off + 1)}, 8)})
				}
				if permute {
					exports[0], exports[1] = exports[1], exports[0]
				}
				dones[i] = Done{Prog: ex.Prog, Inst: ex.Inst, Exports: exports}
			}
			l.sendDoneBatch(dones) //nolint:errcheck
		}))
		conns := acceptN(t, ln, 1)
		p := core.NewProgram("permuted")
		p.AddBuffer("out", insts*16)
		tpl := core.NewTemplate(1, "w", func(core.Context) {})
		tpl.Instances = insts
		tpl.Access = func(ctx core.Context) []core.MemRegion {
			off := int64(ctx) * 16
			return []core.MemRegion{
				{Buffer: "out", Offset: off, Size: 8, Write: true},
				{Buffer: "out", Offset: off + 8, Size: 8, Write: true},
			}
		}
		p.AddBlock().Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("out", make([]byte, insts*16))
		st, err := CoordinateOpts(p, svb, conns, fastFailover())
		if err != nil {
			t.Fatalf("permute=%v: %v", permute, err)
		}
		return st, svb.Bytes("out")
	}
	var want []byte
	for off := 0; off < insts*16; off += 8 {
		want = append(want, bytes.Repeat([]byte{byte(off + 1)}, 8)...)
	}
	for _, permute := range []bool{false, true} {
		st, got := run(permute)
		if !bytes.Equal(got, want) {
			t.Fatalf("permute=%v: out = %v, want %v", permute, got, want)
		}
		if st.BytesIn != insts*16 || st.Nodes[0].Lost || st.Nodes[0].Executed != insts {
			t.Fatalf("permute=%v: BytesIn %d, node %+v; want %d bytes from a node in good standing", permute, st.BytesIn, st.Nodes[0], insts*16)
		}
	}
}
