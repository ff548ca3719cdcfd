package dist

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/rts"
)

// TestColdSessionsRecycleWorkerCache runs cold sessions of two programs in
// turn on a one-node fleet, so every replica after the first caches its
// imports in the region cache the last one parked: FFT-32/1, then
// TRAPEZ-2^19/512, then FFT-32/1 again, each byte-identical to rts.Run.
// Released receive buffers are poisoned, so a cache entry that aliased a
// frame, or a parked payload read in place of a fresh one, shows up as
// wrong bytes.
func TestColdSessionsRecycleWorkerCache(t *testing.T) {
	poisonRecycled(t)
	f, wait, err := NewLocalFleet(1, 1, suiteResolver, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for i, spec := range []ProgramSpec{
		{Name: "FFT", Param: 32, Kernels: 1, Unroll: 1},
		{Name: "TRAPEZ", Param: 19, Kernels: 1, Unroll: 512},
		{Name: "FFT", Param: 32, Kernels: 1, Unroll: 1},
	} {
		prog, svb, err := suiteResolver(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		if err := f.Open(uint32(i+1), OpenReq{Prog: prog, SVB: svb, Spec: spec, OnDone: func(_ *Stats, err error) { done <- err }}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("session %d (%s): %v", i, spec.Name, err)
		}
		ref, want, err := suiteResolver(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rts.Run(ref, rts.Options{Kernels: 1}); err != nil {
			t.Fatal(err)
		}
		for _, b := range prog.Buffers {
			if !bytes.Equal(svb.Bytes(b.Name), want.Bytes(b.Name)) {
				t.Fatalf("session %d (%s): buffer %q differs from rts.Run's", i, spec.Name, b.Name)
			}
		}
	}
	f.Close() //nolint:errcheck
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("node %d: %v", i, werr)
		}
	}
}

// TestParkedCacheHoldsNothing drives a worker over a pipe: a region that
// cold session A cached is referenced by A again (a hit) and then by cold
// session B, whose replica caches in the region cache A parked. B's
// reference must be refused as not cached here: a parked cache keeps its
// storage, never its entries.
func TestParkedCacheHoldsNothing(t *testing.T) {
	c1, c2 := net.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ServeFleet(c2, 1, func(ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
			p, svb := distSum(4, 1)()
			return p, svb, nil
		})
	}()
	l := newLink(c1)
	c1.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if fr, err := l.recv(); err != nil || fr.typ != ftHello {
		t.Fatalf("handshake: %v %v", fr.typ, err)
	}
	// reduce (thread 2) imports all of parts and exports out = their sum.
	parts := make([]byte, 32)
	for i := range 4 {
		binary.LittleEndian.PutUint64(parts[8*i:], uint64(i+1))
	}
	full := RegionData{Buffer: "parts", Offset: 0, Data: parts, Size: 32, Ver: 1}
	ref := RegionData{Buffer: "parts", Offset: 0, Size: 32, Ver: 1, Ref: true}
	reduce := func(prog uint32, imp RegionData) Done {
		t.Helper()
		ex := Exec{Prog: prog, Inst: core.Instance{Thread: 2}, Imports: []RegionData{imp}}
		if err := l.sendExecBatch([]Exec{ex}); err != nil {
			t.Fatal(err)
		}
		fr, err := l.recv()
		if err != nil || fr.typ != ftDoneBatch || len(fr.dones) != 1 {
			t.Fatalf("reduce of program %d: %v %+v %v", prog, fr.typ, fr.dones, err)
		}
		d := fr.dones[0]
		if d.Err == "" && (len(d.Exports) != 1 || binary.LittleEndian.Uint64(d.Exports[0].Data) != 10) {
			t.Fatalf("reduce of program %d exported %+v, want out = 10", prog, d.Exports)
		}
		d.Exports = nil // they alias the frame
		return d
	}
	send := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	send(l.sendOpenProg(1, ProgramSpec{Name: "A"}, false))
	if d := reduce(1, full); d.Err != "" {
		t.Fatalf("session A staging the full region: %s", d.Err)
	}
	if d := reduce(1, ref); d.Err != "" {
		t.Fatalf("session A's reference to the region it cached: %s", d.Err)
	}
	send(l.sendCloseProg(1))
	send(l.sendOpenProg(2, ProgramSpec{Name: "B"}, false))
	if d := reduce(2, ref); !strings.Contains(d.Err, "not cached here") {
		t.Fatalf("session B's reference to session A's region: got %q, want a not-cached-here error", d.Err)
	}
	send(l.sendCloseProg(2))
	send(l.sendShutdown())
	if err := <-serveErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	c1.Close()
}

// TestImportCacheParkBounded pins the two bounds on parking: at most
// maxParkedTables caches, and none that tracked more than
// maxParkedRegions regions. A cache is left empty either way.
func TestImportCacheParkBounded(t *testing.T) {
	filled := func(keys int) *importCache {
		c := new(importCache)
		data := make([]byte, 16)
		for i := range keys {
			c.put(&RegionData{Buffer: "b", Offset: int64(i) * 16, Data: data, Size: 16, Ver: 1})
		}
		return c
	}
	var parked []importCache
	big := filled(maxParkedRegions + 1)
	if parked = big.park(parked); len(parked) != 0 {
		t.Fatalf("a cache of %d regions was parked", maxParkedRegions+1)
	}
	if big.ents != nil || big.chunks != nil {
		t.Fatal("a cache turned away still holds its storage")
	}
	for i := range maxParkedTables + 1 {
		c := filled(maxParkedRegions)
		parked = c.park(parked)
		if want := min(i+1, maxParkedTables); len(parked) != want {
			t.Fatalf("%d parked after %d parks, want %d", len(parked), i+1, want)
		}
	}
	for i := range parked {
		if c := &parked[i]; len(c.ents) != 0 || c.used != 0 || c.off != 0 {
			t.Fatalf("parked cache %d is not empty: %d regions, carving chunk %d at %d", i, len(c.ents), c.used, c.off)
		}
	}
}

// TestStagingIntoParkedCacheAllocatesNothing stages FFT-32/1's whole
// import set — every region any instance reads, cached at a version —
// into a replica's region cache, parks it and hands it to the next
// replica, which stages the set again. Once the cache holds a table and
// chunks for the set, that allocates nothing: a cold session no longer
// regrows the map (≈ 300 KiB per FFT-32 session before caches were
// parked) or copies each payload into a slice of its own.
func TestStagingIntoParkedCacheAllocatesNothing(t *testing.T) {
	spec := ProgramSpec{Name: "FFT", Param: 32, Kernels: 2, Unroll: 1}
	rep, err := buildReplica(suiteResolver, spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := suiteResolver(spec)
	if err != nil {
		t.Fatal(err)
	}
	tab := core.NewAccessTable(prog)
	var execs []Exec
	for _, b := range prog.Blocks {
		for _, tpl := range b.Templates {
			for ctx := core.Context(0); ctx < tpl.Instances; ctx++ {
				ex := Exec{Inst: core.Instance{Thread: tpl.ID, Ctx: ctx}}
				for _, r := range tab.Row(ex.Inst) {
					if !r.Write && r.Size > 0 {
						ex.Imports = append(ex.Imports, RegionData{Buffer: r.Buffer, Offset: r.Offset, Data: make([]byte, r.Size), Size: r.Size, Ver: 1})
					}
				}
				execs = append(execs, ex)
			}
		}
	}
	var parked []importCache
	session := func() {
		for i := range execs {
			if err := stageImports(rep, &execs[i]); err != nil {
				t.Fatal(err)
			}
		}
		parked = rep.cache.park(parked)
		parked = rep.cache.unpark(parked)
	}
	session()
	if allocs := testing.AllocsPerRun(20, session); allocs != 0 {
		t.Fatalf("staging FFT-32/1's imports into a parked cache allocates %.1f objects, want 0", allocs)
	}
	if len(parked) != 0 || len(rep.cache.chunks) == 0 {
		t.Fatalf("the cache did not go round: %d parked, %d chunks", len(parked), len(rep.cache.chunks))
	}
}
