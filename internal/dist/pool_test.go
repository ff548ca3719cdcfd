package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// TestFleetPooledSessions pins what a warm open buys and what a cold one
// pays, with byte-correct results every time: four sessions of one
// program on a 2-node fleet resolve it twice when opened pooled
// (OpenReq.Hash set: one build per node, every later session recycles
// that replica) and eight times when opened cold.
func TestFleetPooledSessions(t *testing.T) {
	poisonRecycled(t)
	const sessions = 4
	for _, tc := range []struct {
		name       string
		pooled     bool
		wantBuilds int64
	}{
		{"pooled", true, 2},
		{"cold", false, 2 * sessions},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var builds atomic.Int64
			resolve := func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
				builds.Add(1)
				p, svb := distSum(core.Context(spec.Param), 50)()
				return p, svb, nil
			}
			f, wait, err := NewLocalFleet(2, 2, resolve, Options{})
			if err != nil {
				t.Fatal(err)
			}
			f.Start()

			spec := ProgramSpec{Name: "distsum", Param: 8}
			prog, svb := distSum(8, 50)()
			tables, err := tsu.NewTables(prog, 4, tsu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for c := 1; c <= 8; c++ {
				want += uint64(c) * 50
			}
			for i := 0; i < sessions; i++ {
				req := OpenReq{Prog: prog, SVB: svb, Spec: spec, Tables: tables}
				if tc.pooled {
					req.Hash = spec.Hash()
				}
				done := make(chan error, 1)
				req.OnDone = func(st *Stats, err error) { done <- err }
				if err := f.Open(uint32(i+1), req); err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
				if err := <-done; err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				if got := binary.LittleEndian.Uint64(svb.Bytes("out")); got != want {
					t.Fatalf("session %d: sum = %d, want %d", i, got, want)
				}
				clear(svb.Bytes("out")) // the next session must write it again
			}
			f.Close() //nolint:errcheck
			for i, werr := range wait() {
				if werr != nil {
					t.Fatalf("node %d: %v", i, werr)
				}
			}
			if n := builds.Load(); n != tc.wantBuilds {
				t.Fatalf("resolver built %d replicas across %d sessions on 2 nodes, want %d", n, sessions, tc.wantBuilds)
			}
		})
	}
}

// TestWorkerReplicaPool drives a worker directly over a pipe and pins the
// pool's three rules: it keys on the spec, so two specs never share a
// replica; a cold open of a pooled spec neither takes from the pool nor
// returns to it; and a spec that does not build is reported on every
// open, since nothing is kept of a failure.
func TestWorkerReplicaPool(t *testing.T) {
	var builds atomic.Int64
	c1, c2 := net.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeFleet(c2, 1, func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
			builds.Add(1)
			if spec.Name != "distsum" {
				return nil, nil, fmt.Errorf("unknown workload %q", spec.Name)
			}
			// Param is the per-worker count: work instance 0 exports it.
			p, svb := distSum(4, spec.Param)()
			return p, svb, nil
		})
	}()
	l := newLink(c1)
	c1.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if fr, err := l.recv(); err != nil || fr.typ != ftHello {
		t.Fatalf("handshake: %v %v", fr.typ, err)
	}
	// A successful open answers nothing, so a Ping fences the frames
	// before it: the worker handles frames in order.
	var seq int64
	wantBuilds := func(what string, want int64) {
		t.Helper()
		seq++
		if err := l.sendPing(seq); err != nil {
			t.Fatal(err)
		}
		if fr, err := l.recv(); err != nil || fr.typ != ftPong || fr.seq != seq {
			t.Fatalf("%s: want Pong %d, got %v %d %v", what, seq, fr.typ, fr.seq, err)
		}
		if n := builds.Load(); n != want {
			t.Fatalf("%s: %d resolver builds, want %d", what, n, want)
		}
	}
	send := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// work(0) of distSum exports parts[0] = the spec's Param.
	runWork0 := func(prog uint32) uint64 {
		t.Helper()
		send(l.sendExecBatch([]Exec{{Prog: prog, Inst: core.Instance{Thread: 1, Ctx: 0}}}))
		fr, err := l.recv()
		if err != nil || fr.typ != ftDoneBatch || len(fr.dones) != 1 || fr.dones[0].Err != "" || len(fr.dones[0].Exports) != 1 {
			t.Fatalf("work(0) of program %d: %v %+v %v", prog, fr.typ, fr.dones, err)
		}
		return binary.LittleEndian.Uint64(fr.dones[0].Exports[0].Data)
	}

	specA := ProgramSpec{Name: "distsum", Param: 10}
	specB := ProgramSpec{Name: "distsum", Param: 20}

	// A's replica goes back to the pool; B, opened pooled right after,
	// must not be handed it.
	send(l.sendOpenProg(1, specA, true))
	if got := runWork0(1); got != 10 {
		t.Fatalf("spec A exported %d, want 10", got)
	}
	send(l.sendCloseProg(1))
	send(l.sendOpenProg(2, specB, true))
	if got := runWork0(2); got != 20 {
		t.Fatalf("spec B exported %d, want 20: it ran on another spec's replica", got)
	}
	send(l.sendCloseProg(2))
	wantBuilds("two specs", 2)

	// A cold open of A builds although an idle A replica exists, and its
	// replica is dropped at close: of two overlapping pooled opens after
	// it, one takes the idle replica and the other has to build.
	send(l.sendOpenProg(3, specA, false))
	wantBuilds("cold open beside an idle replica", 3)
	send(l.sendCloseProg(3))
	send(l.sendOpenProg(4, specA, true))
	send(l.sendOpenProg(5, specA, true))
	wantBuilds("two pooled opens after a cold close", 4)
	send(l.sendCloseProg(4))
	send(l.sendCloseProg(5))

	// A failed build leaves nothing behind: each open asks the resolver
	// again and each is told why it failed.
	for prog, pooled := range []bool{true, true, false} {
		send(l.sendOpenProg(uint32(10+prog), ProgramSpec{Name: "nope"}, pooled))
		fr, err := l.recv()
		if err != nil || fr.typ != ftProgAck || fr.ack.Prog != uint32(10+prog) || !strings.Contains(fr.ack.Err, "unknown workload") {
			t.Fatalf("failed open %d: got %v %+v %v", prog, fr.typ, fr.ack, err)
		}
	}
	wantBuilds("three failed opens", 7)

	send(l.sendShutdown())
	if err := <-serveErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	c1.Close()
}

// TestReplicaPristineRestore pins the recycling invariant: a recycled
// replica's buffers carry the build-time bytes and no valid region cache
// entry, no matter what the previous session wrote. Entries stay, with
// their storage, for the next session to re-cache into; a reference to
// one is refused like a reference to nothing.
func TestReplicaPristineRestore(t *testing.T) {
	rep, err := buildReplica(func(ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		p, svb := distSum(4, 10)()
		return p, svb, nil
	}, ProgramSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rep.snapshotPristine()
	orig := append([]byte(nil), rep.bufs.Bytes("parts")...)

	rep.bufs.Bytes("parts")[0] = 0x77
	rep.bufs.Bytes("out")[3] = 0x42
	rep.cache.put(&RegionData{Buffer: "parts", Offset: 0, Size: 8, Data: make([]byte, 8), Ver: 9})

	rep.restorePristine()
	if got := rep.bufs.Bytes("parts"); string(got) != string(orig) {
		t.Fatalf("parts not restored: %v", got[:8])
	}
	if rep.bufs.Bytes("out")[3] != 0 {
		t.Fatal("out not restored")
	}
	for key, ent := range rep.cache.ents {
		if ent.ver != 0 {
			t.Fatalf("region cache entry %+v survived recycling at v%d", key, ent.ver)
		}
	}
	ref := RegionData{Buffer: "parts", Offset: 0, Size: 8, Ref: true, Ver: 9}
	if err := stageImports(rep, &Exec{Imports: []RegionData{ref}}); err == nil {
		t.Fatal("a reference to an invalidated cache entry was staged")
	}
}

// TestProgramSpecHashDistinguishesFields: specs differing in any one
// field must not share a hash (FNV-1a over the length-prefixed canonical
// encoding).
func TestProgramSpecHashDistinguishesFields(t *testing.T) {
	base := ProgramSpec{Name: "MMULT", Param: 64, Kernels: 4, Unroll: 2}
	variants := []ProgramSpec{
		{Name: "MMULT2", Param: 64, Kernels: 4, Unroll: 2},
		{Name: "MMULT", Param: 65, Kernels: 4, Unroll: 2},
		{Name: "MMULT", Param: 64, Kernels: 8, Unroll: 2},
		{Name: "MMULT", Param: 64, Kernels: 4, Unroll: 4},
		{Name: "MMULT", Param: -64, Kernels: 4, Unroll: 2},
	}
	h := base.Hash()
	seen := map[uint64]ProgramSpec{h: base}
	for _, v := range variants {
		hv := v.Hash()
		if prev, dup := seen[hv]; dup {
			t.Fatalf("hash %#x collides: %+v and %+v", hv, prev, v)
		}
		seen[hv] = v
	}
	if base.Hash() != h {
		t.Fatal("hash not deterministic")
	}
}
