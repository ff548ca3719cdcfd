package dist

import (
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// TestFleetContentAddressedSessions pins the compile-once wire contract:
// with OpenReq.Hash set, the spec travels to each worker exactly once
// (one resolver build per node) and every later session of the same
// program opens by ref against a recycled replica — with byte-correct
// results every time.
func TestFleetContentAddressedSessions(t *testing.T) {
	var builds atomic.Int64
	resolve := func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		builds.Add(1)
		p, svb := distSum(core.Context(spec.Param), 50)()
		return p, svb, nil
	}
	reg := obs.NewRegistry()
	f, wait, err := NewLocalFleet(2, 2, resolve, Options{Metrics: reg})
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
	const sessions = 4
	for i := 0; i < sessions; i++ {
		done := make(chan error, 1)
		if err := f.Open(uint32(i+1), OpenReq{
			Prog:   prog,
			SVB:    svb,
			Spec:   spec,
			Hash:   spec.Hash(),
			Tables: tables,
			OnDone: func(st *Stats, err error) { done <- err },
		}); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(svb.Bytes("out")); got != want {
			t.Fatalf("session %d: sum = %d, want %d", i, got, want)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("resolver built %d replicas across %d sessions on 2 nodes, want 2 (one install per node)", n, sessions)
	}
	if n := reg.Counter("dist.program_installs").Value(); n != 2 {
		t.Fatalf("dist.program_installs = %d, want 2", n)
	}
	f.Close() //nolint:errcheck
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("node %d: %v", i, werr)
		}
	}
}

// TestWorkerRejectsUnknownProgramRef drives a worker directly over a pipe
// and behaves byzantinely: refs that were never installed, and installs
// whose hash collides with a different spec, must both be rejected via
// ProgAck — never guessed at.
func TestWorkerRejectsUnknownProgramRef(t *testing.T) {
	c1, c2 := net.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeFleet(c2, 1, func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
			p, svb := distSum(core.Context(spec.Param), 10)()
			return p, svb, nil
		})
	}()
	l := newLink(c1)
	c1.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if fr, err := l.recv(); err != nil || fr.typ != ftHello {
		t.Fatalf("handshake: %v %v", fr.typ, err)
	}

	// A ref the worker has never seen must be rejected by name.
	if err := l.sendOpenProgRef(1, 0xabcdef); err != nil {
		t.Fatal(err)
	}
	fr, err := l.recv()
	if err != nil || fr.typ != ftProgAck {
		t.Fatalf("want ProgAck, got %v %v", fr.typ, err)
	}
	if !strings.Contains(fr.ack.Err, "unknown program ref") {
		t.Fatalf("unknown ref ack = %q, want unknown-program-ref rejection", fr.ack.Err)
	}

	// Two different specs under one hash poison the entry: ref-opens fail
	// with a collision report instead of silently picking a winner.
	specA := ProgramSpec{Name: "distsum", Param: 4}
	specB := ProgramSpec{Name: "distsum", Param: 8}
	const h = 0x1111
	if err := l.sendInstallProgram(h, specA); err != nil {
		t.Fatal(err)
	}
	if err := l.sendInstallProgram(h, specB); err != nil {
		t.Fatal(err)
	}
	if err := l.sendOpenProgRef(2, h); err != nil {
		t.Fatal(err)
	}
	if fr, err = l.recv(); err != nil || fr.typ != ftProgAck {
		t.Fatalf("want ProgAck, got %v %v", fr.typ, err)
	}
	if !strings.Contains(fr.ack.Err, "hash collision") {
		t.Fatalf("collision ack = %q, want hash-collision rejection", fr.ack.Err)
	}

	// A clean install still opens by ref.
	const h2 = 0x2222
	if err := l.sendInstallProgram(h2, specA); err != nil {
		t.Fatal(err)
	}
	if err := l.sendOpenProgRef(3, h2); err != nil {
		t.Fatal(err)
	}
	if fr, err = l.recv(); err != nil || fr.typ != ftProgAck || fr.ack.Err != "" {
		t.Fatalf("clean ref-open: got %v ack=%q err=%v", fr.typ, fr.ack.Err, err)
	}

	if err := l.sendShutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	c1.Close()
}

// TestReplicaPristineRestore pins the recycling invariant: a recycled
// replica's buffers carry the build-time bytes and an empty region
// cache, no matter what the previous session wrote.
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
	rep.cache[regionKey{buffer: "parts", offset: 0, size: 8}] = cacheEntry{ver: 9, data: []byte{1}}

	rep.restorePristine()
	if got := rep.bufs.Bytes("parts"); string(got) != string(orig) {
		t.Fatalf("parts not restored: %v", got[:8])
	}
	if rep.bufs.Bytes("out")[3] != 0 {
		t.Fatal("out not restored")
	}
	if len(rep.cache) != 0 {
		t.Fatalf("region cache survived recycling: %d entries", len(rep.cache))
	}
}

// TestProgramSpecHashDistinguishesFields is the cache-key soundness
// check at the wire-ref level: specs differing in any one field must not
// share a hash (FNV-1a over the length-prefixed canonical encoding).
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
