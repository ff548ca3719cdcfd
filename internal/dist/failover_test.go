package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tflux/internal/byteview"
	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/workload"
)

// fastFailover is the resilience tuning the failover tests share: tight
// heartbeats and aggressive retry so failures resolve in milliseconds.
func fastFailover() Options {
	return Options{
		Heartbeat:        10 * time.Millisecond,
		HeartbeatMisses:  3,
		LeaseTimeout:     -1, // individual tests opt in
		HandshakeTimeout: 5 * time.Second,
		RetryBase:        time.Millisecond,
		RetryCap:         20 * time.Millisecond,
	}
}

// TestChaosSeverFailover is the acceptance scenario: a real benchmark
// workload (MMULT) on 4 worker nodes, with a seeded chaos plan severing
// nodes 1 and 2 mid-run. The run must degrade gracefully to the
// surviving nodes and produce byte-identical canonical buffers to the
// fault-free run, with every re-dispatched instance's exports applied
// exactly once; the same seed must produce the same chaos event log.
// Node 2's sever is mid-frame: the batched protocol must survive a
// half-delivered ExecBatch, re-dispatching every instance the severed
// frame carried. (The `after` frame counts are lower than the PR-3
// original because batching coalesces dispatches into far fewer
// frames; the scenario — two nodes lost mid-run — is unchanged.)
func TestChaosSeverFailover(t *testing.T) {
	poisonRecycled(t)
	const spec = "seed=7,plan=sever:node=1:after=1;sever:node=2:after=1:midframe=true"
	runMMult := func(plan *chaos.Plan, log *chaos.Log, reg *obs.Registry) (*Stats, *core.SharedVariableBuffer, workload.Job) {
		t.Helper()
		build, owner := workload.Replicas(workload.MMultSpec(), 32, 8, 1)
		opt := fastFailover()
		opt.Metrics = reg
		// A tight window and small batches force several ExecBatch
		// frames per node, so the severs land mid-run (with the default
		// window the whole workload coalesces into one frame per node
		// and the faults would only hit the Shutdown frame).
		opt.Window = 2
		opt.BatchCount = 2
		if plan != nil {
			opt.WrapConn = func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, log) }
		}
		st, svb, err := RunLocalOpts(build, 4, 2, opt)
		if err != nil {
			t.Fatalf("run failed: %v\nstats: %+v", err, st)
		}
		job, err := owner(svb)
		if err != nil {
			t.Fatal(err)
		}
		return st, svb, job
	}

	// Fault-free reference.
	_, refSVB, refJob := runMMult(nil, nil, nil)
	if err := refJob.Verify(); err != nil {
		t.Fatalf("fault-free verify: %v", err)
	}

	// Chaos run: two severs mid-run.
	plan, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	log := chaos.NewLog()
	reg := obs.NewRegistry()
	st, svb, job := runMMult(plan, log, reg)
	if err := job.Verify(); err != nil {
		t.Fatalf("chaos verify: %v", err)
	}

	// Byte-identical canonical buffers.
	for _, name := range []string{"A", "B", "C"} {
		if !bytes.Equal(svb.Bytes(name), refSVB.Bytes(name)) {
			t.Fatalf("buffer %q differs between chaos and fault-free runs", name)
		}
	}

	// Both severed nodes must have been failed over.
	if st.Failovers < 2 {
		t.Fatalf("failovers = %d, want ≥ 2 (stats: %+v)", st.Failovers, st)
	}
	if !st.Nodes[1].Lost || !st.Nodes[2].Lost {
		t.Fatalf("nodes 1 and 2 should be lost: %+v", st.Nodes)
	}
	if st.Retries == 0 {
		t.Fatal("no re-dispatches despite lost nodes")
	}
	if got := reg.Counter("dist.failovers").Value(); got != st.Failovers {
		t.Fatalf("dist.failovers = %d, stats say %d", got, st.Failovers)
	}
	if got := reg.Counter("dist.retries").Value(); got != st.Retries {
		t.Fatalf("dist.retries = %d, stats say %d", got, st.Retries)
	}
	if g := reg.Gauge("dist.node1.alive"); g.Value() != 0 || g.Max() != 1 {
		t.Fatalf("node1 liveness gauge = %d (max %d), want 0 (max 1)", g.Value(), g.Max())
	}
	if g := reg.Gauge("dist.node0.alive"); g.Value() != 1 {
		t.Fatalf("node0 liveness gauge = %d, want 1", g.Value())
	}
	// Exactly-once export accounting: every executed instance was
	// counted on exactly one node, and the executed total matches the
	// TSU's application-instance count (32 rows + 1 sink); duplicates
	// were discarded, not applied.
	var executed int64
	for _, nd := range st.Nodes {
		executed += nd.Executed
	}
	if executed != 33 {
		t.Fatalf("executed = %d, want 33 (exactly once per instance)", executed)
	}

	// Deterministic replay: the same seed and plan produce the same
	// chaos event log.
	log2 := chaos.NewLog()
	plan2, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, svb2, _ := runMMult(plan2, log2, nil)
	if !bytes.Equal(svb2.Bytes("C"), refSVB.Bytes("C")) {
		t.Fatal("replayed chaos run diverged from reference output")
	}
	if !reflect.DeepEqual(log.Events(), log2.Events()) {
		t.Fatalf("same seed produced different chaos logs:\n%v\nvs\n%v", log, log2)
	}
	if log.Count() < 2 {
		t.Fatalf("chaos log has %d events, want the 2 severs:\n%v", log.Count(), log)
	}
}

// TestChaosSeverDuringDrain is the recipe in tfluxrun's package comment
// (-bench MMULT -platform dist -nodes 4 -kernels 8 -dist-window 1
// -dist-batch 1 with the plan below), which used to kill the process:
// with a window and batch of one every deferred instance is flushed from
// inside drainDeferred, node 2's second frame is severed mid-frame there,
// and the failover that flush triggers takes node 2's ring while
// drainDeferred is still holding its head. A lost node costs re-dispatches,
// never the coordinator, and the bytes are those of a local run.
func TestChaosSeverDuringDrain(t *testing.T) {
	poisonRecycled(t)
	plan, err := chaos.ParseSpec("seed=7,plan=sever:node=1:after=1;sever:node=2:after=2:midframe=true")
	if err != nil {
		t.Fatal(err)
	}
	build, owner := workload.Replicas(workload.MMultSpec(), 64, 8, 8)
	log := chaos.NewLog()
	opt := Options{
		Window: 1, BatchCount: 1,
		Heartbeat: 20 * time.Millisecond, HeartbeatMisses: 5, LeaseTimeout: 2 * time.Second,
		WrapConn: func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, log) },
	}
	st, svb, err := RunLocalOpts(build, 4, 2, opt)
	if err != nil {
		t.Fatalf("run failed: %v\nstats: %+v", err, st)
	}
	job, err := owner(svb)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(); err != nil {
		t.Fatal(err)
	}
	if !st.Nodes[1].Lost || !st.Nodes[2].Lost || st.Retries == 0 {
		t.Fatalf("nodes 1 and 2 should be lost and their leases re-dispatched: %+v", st)
	}
	if log.Count() < 2 {
		t.Fatalf("chaos log has %d events, want the 2 severs:\n%v", log.Count(), log)
	}

	local := workload.MMultSpec().Make(64)
	prog, err := local.Build(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rts.Run(prog, rts.Options{Kernels: 2}); err != nil {
		t.Fatal(err)
	}
	want := local.SharedBuffers()
	for _, b := range prog.Buffers {
		if !bytes.Equal(svb.Bytes(b.Name), want.Bytes(b.Name)) {
			t.Fatalf("buffer %q differs from rts.Run's", b.Name)
		}
	}
}

// fakeWorker handshakes with the coordinator and then runs script with
// the link; it is how tests impersonate byzantine or silent nodes.
func fakeWorker(t *testing.T, ln net.Listener, kernels int, script func(l *link)) {
	t.Helper()
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		l := newLink(conn)
		if err := l.sendHello(kernels); err != nil {
			return
		}
		script(l)
	}()
}

// acceptN accepts n connections.
func acceptN(t *testing.T, ln net.Listener, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns
}

// TestFailoverHeartbeatMiss: a connected node that stops responding (no
// Pongs, no Dones) is detected by heartbeat miss and its in-flight work
// re-dispatched to the surviving node.
func TestFailoverHeartbeatMiss(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var executed atomic.Int64
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("hb")
		tpl := core.NewTemplate(1, "w", func(core.Context) { executed.Add(1) })
		tpl.Instances = 4
		p.AddBlock().Add(tpl)
		return p, core.NewSharedVariableBuffer()
	}

	// Node 0: a real worker. Node 1: accepts frames but never answers.
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		Serve(conn, 1, build) //nolint:errcheck
	}()
	conns := acceptN(t, ln, 1)
	fakeWorker(t, ln, 1, func(l *link) {
		for {
			if _, err := l.recv(); err != nil {
				return
			}
		}
	})
	conns = append(conns, acceptN(t, ln, 1)...)

	prog, svb := build()
	st, err := CoordinateOpts(prog, svb, conns, fastFailover())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !st.Nodes[1].Lost || !strings.Contains(st.Nodes[1].LostReason, "heartbeat") {
		t.Fatalf("node 1 not lost to heartbeat: %+v", st.Nodes)
	}
	if st.Retries == 0 {
		t.Fatal("silent node's leases were not re-dispatched")
	}
	if got := executed.Load(); got != 4 {
		t.Fatalf("executed = %d, want 4 (exactly once per instance)", got)
	}
	if st.Nodes[0].Executed != 4 {
		t.Fatalf("surviving node executed %d of 4", st.Nodes[0].Executed)
	}
}

// TestFailoverLeaseExpiry: a node that sits on a DThread forever is caught
// by lease expiry; the instance re-executes on the surviving node and the
// run completes. Heartbeats are off, so only lease expiry is tested.
func TestFailoverLeaseExpiry(t *testing.T) {
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	var firstRun atomic.Bool
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		parts := make([]uint64, 4)
		p := core.NewProgram("lease")
		p.AddBuffer("parts", 32)
		tpl := core.NewTemplate(1, "w", func(ctx core.Context) {
			if ctx == 0 && firstRun.CompareAndSwap(false, true) {
				<-unblock // wedge the first execution of instance 0 forever
			}
			parts[ctx] = uint64(ctx) + 1
		})
		tpl.Instances = 4
		tpl.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "parts", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		}
		p.AddBlock().Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("parts", byteview.Uint64s(parts))
		return p, svb
	}
	opt := fastFailover()
	opt.LeaseTimeout = 60 * time.Millisecond
	// Heartbeats off: on a starved host a 30 ms heartbeat window can
	// declare the surviving node lost too. Here a lease is the only way
	// to lose a node (TestFailoverHeartbeatMiss covers heartbeats).
	opt.Heartbeat = -1
	st, svb, err := RunLocalOpts(build, 2, 1, opt)
	if err != nil {
		t.Fatalf("run failed: %v\nstats: %+v", err, st)
	}
	lost := -1
	for i, nd := range st.Nodes {
		if nd.Lost {
			if lost >= 0 {
				t.Fatalf("more than one node lost: %+v", st.Nodes)
			}
			lost = i
			if !strings.Contains(nd.LostReason, "lease") {
				t.Fatalf("node %d lost for %q, want lease expiry", i, nd.LostReason)
			}
		}
	}
	if lost < 0 {
		t.Fatalf("no node lost to lease expiry: %+v", st.Nodes)
	}
	if st.Retries == 0 {
		t.Fatal("expired lease was not re-dispatched")
	}
	for i := 0; i < 4; i++ {
		if got := binary.LittleEndian.Uint64(svb.Bytes("parts")[i*8:]); got != uint64(i)+1 {
			t.Fatalf("parts[%d] = %d, want %d", i, got, i+1)
		}
	}
}

// TestDuplicateDoneIgnored: a worker that reports the same instance
// twice must have the duplicate discarded — its exports apply exactly
// once — while the run completes normally.
func TestDuplicateDoneIgnored(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	fakeWorker(t, ln, 1, func(l *link) {
		var insts []core.Instance
		for len(insts) < 2 {
			f, err := l.recv()
			if err != nil {
				return
			}
			switch f.typ {
			case ftExecBatch:
				for _, ex := range f.execs {
					insts = append(insts, ex.Inst)
				}
			case ftPing:
				l.sendPong(f.seq) //nolint:errcheck
			}
		}
		exports := func(inst core.Instance, v byte) []RegionData {
			return []RegionData{{Buffer: "out", Offset: int64(inst.Ctx) * 8, Data: []byte{v, 0, 0, 0, 0, 0, 0, 0}}}
		}
		// First instance: real Done, then a poisoned duplicate whose
		// exports must NOT be applied.
		l.sendDoneBatch([]Done{{Inst: insts[0], Kernel: 0, Exports: exports(insts[0], 1)}})  //nolint:errcheck
		l.sendDoneBatch([]Done{{Inst: insts[0], Kernel: 0, Exports: exports(insts[0], 99)}}) //nolint:errcheck
		l.sendDoneBatch([]Done{{Inst: insts[1], Kernel: 0, Exports: exports(insts[1], 1)}})  //nolint:errcheck
		for {
			f, err := l.recv()
			if err != nil || f.typ == ftShutdown {
				return
			}
			if f.typ == ftPing {
				l.sendPong(f.seq) //nolint:errcheck
			}
		}
	})
	conns := acceptN(t, ln, 1)

	out := make([]uint64, 2)
	p := core.NewProgram("dupe")
	p.AddBuffer("out", 16)
	tpl := core.NewTemplate(1, "w", func(core.Context) {})
	tpl.Instances = 2
	tpl.Access = func(ctx core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "out", Offset: int64(ctx) * 8, Size: 8, Write: true}}
	}
	p.AddBlock().Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("out", byteview.Uint64s(out))

	st, err := CoordinateOpts(p, svb, conns, fastFailover())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if st.DupeDones != 1 {
		t.Fatalf("dupe dones = %d, want 1", st.DupeDones)
	}
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("out = %v — duplicate exports were applied", out)
	}
	if st.Nodes[0].Executed != 2 {
		t.Fatalf("executed = %d, want 2", st.Nodes[0].Executed)
	}
}

// TestByzantineKernelRejected: a Done whose node-local kernel index is
// out of range must not panic the coordinator; the node is failed over
// (here: the only node, so the run errors out cleanly).
func TestByzantineKernelRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fakeWorker(t, ln, 1, func(l *link) {
		for {
			f, err := l.recv()
			if err != nil {
				return
			}
			if f.typ == ftExecBatch {
				l.sendDoneBatch([]Done{{Inst: f.execs[0].Inst, Kernel: 7}}) //nolint:errcheck
				return
			}
		}
	})
	conns := acceptN(t, ln, 1)
	p := core.NewProgram("byz")
	p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) {}))
	_, err = CoordinateOpts(p, core.NewSharedVariableBuffer(), conns, fastFailover())
	if err == nil || !strings.Contains(err.Error(), "out-of-range kernel") {
		t.Fatalf("err = %v, want out-of-range kernel rejection", err)
	}
}

// TestByzantineExportOffsetRejected: a Done exporting at an offset so
// large that offset+len wraps int64 must be caught by the export bounds
// check — the node is failed over (the only node, so the run errors
// out), not believed, its byte dropped and counted as received.
func TestByzantineExportOffsetRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fakeWorker(t, ln, 1, func(l *link) {
		for {
			f, err := l.recv()
			if err != nil {
				return
			}
			switch f.typ {
			case ftOpenProg:
				l.sendProgAck(f.open.Prog, "") //nolint:errcheck
			case ftExecBatch:
				ex := f.execs[0]
				l.sendDoneBatch([]Done{{Prog: ex.Prog, Inst: ex.Inst, Exports: []RegionData{ //nolint:errcheck
					{Buffer: "out", Offset: math.MaxInt64, Data: []byte{9}},
				}}})
				return
			}
		}
	})
	conns := acceptN(t, ln, 1)
	p := core.NewProgram("byz-export")
	p.AddBuffer("out", 8)
	tpl := core.NewTemplate(1, "w", func(core.Context) {})
	tpl.Access = func(core.Context) []core.MemRegion {
		return []core.MemRegion{{Buffer: "out", Size: 8, Write: true}}
	}
	p.AddBlock().Add(tpl)
	svb := core.NewSharedVariableBuffer()
	svb.Register("out", make([]byte, 8))
	st, err := CoordinateOpts(p, svb, conns, fastFailover())
	if err == nil || !strings.Contains(err.Error(), "outside buffer") {
		t.Fatalf("err = %v (stats %+v), want the export rejected as outside buffer", err, st)
	}
}

// TestByzantineUndeclaredExportRejected: a Done that exports bytes inside
// the buffer but outside what its instance declares must not be applied.
// The lying node is failed over by name, its leases re-run on the honest
// node, and the program completes with the honest bytes.
func TestByzantineUndeclaredExportRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	build := func() (*core.Program, *core.SharedVariableBuffer) {
		out := make([]uint64, 4)
		p := core.NewProgram("byz-undeclared")
		p.AddBuffer("out", 32)
		tpl := core.NewTemplate(1, "w", func(ctx core.Context) { out[ctx] = uint64(ctx) + 1 })
		tpl.Instances = 4
		tpl.Access = func(ctx core.Context) []core.MemRegion {
			return []core.MemRegion{{Buffer: "out", Offset: int64(ctx) * 8, Size: 8, Write: true}}
		}
		p.AddBlock().Add(tpl)
		svb := core.NewSharedVariableBuffer()
		svb.Register("out", byteview.Uint64s(out))
		return p, svb
	}

	// Node 0: a real worker. Node 1: answers every Exec with 8 bytes over
	// the neighbouring instance's slot.
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		Serve(conn, 1, build) //nolint:errcheck
	}()
	conns := acceptN(t, ln, 1)
	fakeWorker(t, ln, 1, func(l *link) {
		for {
			f, err := l.recv()
			if err != nil {
				return
			}
			switch f.typ {
			case ftOpenProg:
				l.sendProgAck(f.open.Prog, "") //nolint:errcheck
			case ftPing:
				l.sendPong(f.seq) //nolint:errcheck
			case ftExecBatch:
				for _, ex := range f.execs {
					l.sendDoneBatch([]Done{{Prog: ex.Prog, Inst: ex.Inst, Exports: []RegionData{ //nolint:errcheck
						{Buffer: "out", Offset: int64((ex.Inst.Ctx+1)%4) * 8, Data: []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE}},
					}}})
				}
			}
		}
	})
	conns = append(conns, acceptN(t, ln, 1)...)

	prog, svb := build()
	st, err := CoordinateOpts(prog, svb, conns, fastFailover())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !st.Nodes[1].Lost || !strings.Contains(st.Nodes[1].LostReason, "does not declare") {
		t.Fatalf("node 1 not lost to its undeclared export: %+v", st.Nodes)
	}
	if st.Retries == 0 || st.Nodes[0].Executed != 4 {
		t.Fatalf("the lying node's leases were not re-run on node 0: retries %d, %+v", st.Retries, st.Nodes)
	}
	for i := 0; i < 4; i++ {
		if got := binary.LittleEndian.Uint64(svb.Bytes("out")[i*8:]); got != uint64(i)+1 {
			t.Fatalf("out[%d] = %#x, want %d", i, got, i+1)
		}
	}
	if st.BytesIn != 32 {
		t.Fatalf("BytesIn = %d, want the 32 honest bytes", st.BytesIn)
	}
}

// TestHandshakeDeadline: a connected-but-silent worker fails the
// handshake with a clear error instead of hanging CoordinateOpts forever.
func TestHandshakeDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // connected, silent
	}()
	conns := acceptN(t, ln, 1)
	p := core.NewProgram("silent")
	p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) {}))
	opt := Options{HandshakeTimeout: 100 * time.Millisecond}
	start := time.Now()
	_, err = CoordinateOpts(p, core.NewSharedVariableBuffer(), conns, opt)
	if err == nil || !strings.Contains(err.Error(), "handshake with node 0") {
		t.Fatalf("err = %v, want handshake failure", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("handshake failure took %v — deadline did not apply", d)
	}
}

// TestAllNodesLostHardFails: when every node is severed the run must
// error out (the hard-fail path), not spin on re-dispatch.
func TestAllNodesLostHardFails(t *testing.T) {
	plan := &chaos.Plan{Seed: 3, Rules: []chaos.Rule{{Kind: chaos.Sever, Node: -1, After: 0}}}
	build := distSum(8, 10)
	opt := fastFailover()
	opt.WrapConn = func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, nil) }
	_, _, err := RunLocalOpts(build, 2, 1, opt)
	if err == nil || !strings.Contains(err.Error(), "nodes lost") {
		t.Fatalf("err = %v, want all-nodes-lost failure", err)
	}
}

// TestFailEarlyUnblocksWorkers: a coordinator-side setup failure
// (buffer size mismatch) must tear the connections down so workers
// blocked in Serve unwind — RunLocal returns promptly and surfaces the
// worker errors instead of dropping them.
func TestFailEarlyUnblocksWorkers(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("mismatch")
		p.AddBuffer("buf", 64)
		p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) {}))
		svb := core.NewSharedVariableBuffer()
		svb.Register("buf", make([]byte, 8)) // too small
		return p, svb
	}
	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, _, err := RunLocal(build, 2, 1)
		done <- result{err}
	}()
	select {
	case r := <-done:
		if r.err == nil || !strings.Contains(r.err.Error(), "registered with") {
			t.Fatalf("err = %v, want buffer mismatch", r.err)
		}
		if !strings.Contains(r.err.Error(), "node 0") {
			t.Fatalf("worker errors not surfaced: %v", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunLocal hung — failEarly did not unblock the workers")
	}
}

// TestWorkerPanicPropagatesViaDoneErr pins the Done.Err error path: a
// remote body panic aborts the run with the panic text, and the worker
// itself survives to report it (the panic is recovered worker-side).
func TestWorkerPanicPropagatesViaDoneErr(t *testing.T) {
	build := func() (*core.Program, *core.SharedVariableBuffer) {
		p := core.NewProgram("boom")
		p.AddBlock().Add(core.NewTemplate(1, "x", func(core.Context) { panic("kaboom-7") }))
		return p, core.NewSharedVariableBuffer()
	}
	_, _, err := RunLocal(build, 2, 1)
	if err == nil || !strings.Contains(err.Error(), "kaboom-7") || !strings.Contains(err.Error(), "panicked on worker") {
		t.Fatalf("err = %v, want remote panic via Done.Err", err)
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap := 2*time.Millisecond, 20*time.Millisecond
	want := []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		16 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond,
	}
	for i, w := range want {
		if got := backoffDelay(i+1, base, cap); got != w {
			t.Fatalf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := backoffDelay(0, base, cap); got != base {
		t.Fatalf("backoffDelay(0) = %v, want %v", got, base)
	}
}

// TestFailoverStatsFmt keeps the lost-node bookkeeping printable — a
// smoke test that the stats struct round-trips through %+v without
// hiding the failover fields.
func TestFailoverStatsFmt(t *testing.T) {
	st := &Stats{Failovers: 2, Retries: 5, DupeDones: 1, Nodes: []NodeStats{{Lost: true, LostReason: "sever"}}}
	s := fmt.Sprintf("%+v", st)
	for _, want := range []string{"Failovers:2", "Retries:5", "DupeDones:1", "Lost:true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats %q missing %q", s, want)
		}
	}
}
