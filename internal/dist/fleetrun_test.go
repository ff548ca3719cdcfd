package dist

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tflux/internal/chaos"
	"tflux/internal/core"
	"tflux/internal/rts"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// suiteResolver resolves a ProgramSpec through the workload registry, the
// way the daemon's resolver does (serve imports dist, so its
// WorkloadResolver cannot be used from here).
func suiteResolver(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
	ws, err := workload.ByName(spec.Name)
	if err != nil {
		return nil, nil, err
	}
	job := ws.Make(spec.Param)
	prog, err := job.Build(spec.Kernels, spec.Unroll)
	if err != nil {
		return nil, nil, err
	}
	job.ResetOutput()
	return prog, job.SharedBuffers(), nil
}

// warmFleetRun is one suite program on a started 2×1 loopback fleet, run
// the way tfluxd runs a warm submission: opened pooled, with pooled TSU
// tables, so every session after the first recycles a worker replica. This is the layer the benchmark reports as
// dist.fleet_run_ms.*, measurable without the bench module.
type warmFleetRun struct {
	f      *Fleet
	wait   func() []error
	job    workload.Job
	prog   *core.Program
	svb    *core.SharedVariableBuffer
	spec   ProgramSpec
	tables *tsu.Tables
	src    map[string][]byte
	last   *Stats
	id     uint32
	// finished, when set, is called on the fleet's loop as each session
	// ends, before its outcome is sent.
	finished func()
}

func newWarmFleetRun(tb testing.TB, name string, param, unroll int, resolve Resolver) *warmFleetRun {
	tb.Helper()
	return newWarmFleetRunOpts(tb, name, param, unroll, resolve, 2, Options{})
}

// newWarmFleetRunOpts is newWarmFleetRun on nodes single-kernel nodes
// tuned by opt.
func newWarmFleetRunOpts(tb testing.TB, name string, param, unroll int, resolve Resolver, nodes int, opt Options) *warmFleetRun {
	tb.Helper()
	w := &warmFleetRun{
		spec: ProgramSpec{Name: name, Param: param, Kernels: nodes, Unroll: unroll},
		src:  make(map[string][]byte),
	}
	ws, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	w.job = ws.Make(param)
	if w.prog, err = w.job.Build(w.spec.Kernels, unroll); err != nil {
		tb.Fatal(err)
	}
	w.job.RunSequential()
	w.job.ResetOutput()
	w.svb = w.job.SharedBuffers()
	for _, b := range w.prog.Buffers {
		w.src[b.Name] = append([]byte(nil), w.svb.Bytes(b.Name)...)
	}
	if w.f, w.wait, err = NewLocalFleet(nodes, 1, resolve, opt); err != nil {
		tb.Fatal(err)
	}
	if w.tables, err = tsu.NewTables(w.prog, w.f.Kernels(), tsu.Config{}); err != nil {
		tb.Fatal(err)
	}
	w.f.Start()
	return w
}

// newSVB returns a second set of canonical buffers for the program,
// holding its source bytes, so two of its sessions can be open at once.
func (w *warmFleetRun) newSVB() *core.SharedVariableBuffer {
	svb := core.NewSharedVariableBuffer()
	for name, b := range w.src {
		svb.Register(name, append([]byte(nil), b...))
	}
	return svb
}

// open starts the program as a new session over svb: pooled on the
// workers, with pooled TSU tables, when warm; cold (every worker resolves
// a replica for this session only) when not. The outcome arrives on the
// returned channel.
func (w *warmFleetRun) open(tb testing.TB, svb *core.SharedVariableBuffer, warm bool) <-chan sessionOutcome {
	tb.Helper()
	done := make(chan sessionOutcome, 1)
	req := OpenReq{
		Prog: w.prog, SVB: svb, Spec: w.spec,
		OnDone: func(st *Stats, err error) {
			if w.finished != nil {
				w.finished()
			}
			done <- sessionOutcome{st, err}
		},
	}
	if warm {
		req.Hash, req.Tables = w.spec.Hash(), w.tables
	}
	w.id++
	if err := w.f.Open(w.id, req); err != nil {
		tb.Fatal(err)
	}
	return done
}

type sessionOutcome struct {
	st  *Stats
	err error
}

// run executes the program once, warm, over the job's own buffers, and
// waits for it.
func (w *warmFleetRun) run(tb testing.TB) {
	tb.Helper()
	for name, b := range w.src {
		copy(w.svb.Bytes(name), b)
	}
	out := <-w.open(tb, w.svb, true)
	if out.err != nil {
		tb.Fatal(out.err)
	}
	w.last = out.st
}

func (w *warmFleetRun) close(tb testing.TB) {
	tb.Helper()
	if err := w.job.Verify(); err != nil {
		tb.Fatal(err)
	}
	w.f.Close() //nolint:errcheck
	for i, werr := range w.wait() {
		if werr != nil {
			tb.Fatalf("node %d: %v", i, werr)
		}
	}
}

// BenchmarkFleetRun is the fleet layer in isolation: the two programs
// the serve workloads submit, warm, on two loopback nodes.
func BenchmarkFleetRun(b *testing.B) {
	for _, c := range []struct {
		tag, name     string
		param, unroll int
	}{
		{"fft32u1", "FFT", 32, 1},
		{"trapez512", "TRAPEZ", 19, 512},
	} {
		b.Run(c.tag, func(b *testing.B) {
			w := newWarmFleetRun(b, c.name, c.param, c.unroll, suiteResolver)
			w.run(b) // first replica build on each node
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.run(b)
			}
			b.StopTimer()
			w.close(b)
		})
	}
}

// What one warm FFT-32/1 session allocates process-wide (coordinator
// loop, both workers, codec): 52 times and 20–37 kB as measured over 35
// runs, + 5 % on the count and + 10 % on the bytes (they spread because
// a pool miss re-grows a receive buffer). The data plane allocates nothing
// per region, the TSU nothing per completion and the loop nothing per
// lease any more (readiness goes onto the loop's stack, arc expansion into
// the State's scratch, a finished instance's lease onto the Fleet's free
// list): what is left is mostly the FFT body. It was 180–181 and 39–53 kB
// while every dispatched instance leased a new *lease (129 objects), 418
// and 54–73 kB while every completion returned a fresh readiness list and
// expanded its arcs into a new buffer, 4 269 and 582 kB while every region
// cost five heap objects (a payload, decoded records and a name string on
// each receive, an export copy on the worker), 6 236 before the region
// table was indexed and recycled, and 4 622 and 860 kB while every session
// called the Access models and learned its own region index.
//
// Under the race detector sync.Pool drops a share of what it is given, so
// frame buffers, Done records and receive buffers are allocated anew at
// random: 338–372 times as measured over 15 runs, + 10 %, with no byte
// ceiling.
const (
	fleetWarmRunAllocsCeiling     = 55
	fleetWarmRunRaceAllocsCeiling = 410
	fleetWarmRunBytesCeiling      = 41_000
)

func TestFleetWarmRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	w := newWarmFleetRun(t, "FFT", 32, 1, suiteResolver)
	w.run(t)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(runs, func() { w.run(t) })
	runtime.ReadMemStats(&after)
	w.close(t)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
	t.Logf("FFT-32/1 warm fleet run: %.0f allocs, %d bytes", got, gotBytes)
	allocsCeiling := fleetWarmRunAllocsCeiling
	if raceBuild {
		allocsCeiling = fleetWarmRunRaceAllocsCeiling
	}
	if got > float64(allocsCeiling) {
		t.Fatalf("FFT-32/1 warm fleet run allocates %.0f times, want <= %d", got, allocsCeiling)
	}
	if gotBytes > fleetWarmRunBytesCeiling && !raceBuild {
		t.Fatalf("FFT-32/1 warm fleet run allocates %d bytes, want <= %d", gotBytes, fleetWarmRunBytesCeiling)
	}
}

// TestFleetLeaseFreeListBounded: the Fleet parks at most nodes × Window
// freed leases, however many sessions open, finish, fail or fail over,
// and a recycled lease changes no output byte: every session's buffers
// end as rts.Run leaves them. Each round of the pooled case opens one
// session whose first DThreads panic on the workers, so it closes with
// leases still out and the next sessions run on them. Freed leases and
// receive buffers are poisoned throughout, so a lease or frame read after
// it went back fails the run.
func TestFleetLeaseFreeListBounded(t *testing.T) {
	poisonRecycled(t)
	// failing resolves "NAME!" as NAME with a first template whose every
	// instance panics.
	failing := func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		name, fail := strings.CutSuffix(spec.Name, "!")
		spec.Name = name
		p, svb, err := suiteResolver(spec)
		if err == nil && fail {
			p.Blocks[0].Templates[0].Body = func(core.Context) { panic("failing session") }
		}
		return p, svb, err
	}
	for _, tc := range []struct {
		name, bench      string
		param, nodes     int
		sessions, rounds int
		sever            string // chaos plan, "" for none
	}{
		{"pooled", "FFT", 32, 2, 6, 5, ""},
		// Without heartbeats a node's write frames are its OpenProg and
		// ExecBatches only, so both severs land inside the session.
		{"sever", "MMULT", 32, 4, 1, 1, "seed=7,plan=sever:node=1:after=2;sever:node=2:after=2:midframe=true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Window: 2, BatchCount: 2}
			if tc.sever != "" {
				plan, err := chaos.ParseSpec(tc.sever)
				if err != nil {
					t.Fatal(err)
				}
				log := chaos.NewLog()
				opt = fastFailover()
				opt.Heartbeat, opt.Window, opt.BatchCount = -1, 2, 2
				opt.WrapConn = func(node int, c net.Conn) net.Conn { return plan.Wrap(node, c, log) }
			}
			w := newWarmFleetRunOpts(t, tc.bench, tc.param, 1, failing, tc.nodes, opt)
			// high is the most leases parked when a session ended; it is
			// read on the loop that owns the list.
			limit, high := tc.nodes*opt.Window, 0
			w.finished = func() { high = max(high, len(w.f.freeLeases)) }

			ref, refSVB, err := suiteResolver(w.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rts.Run(ref, rts.Options{Kernels: 2}); err != nil {
				t.Fatal(err)
			}
			var lost []bool
			var retries int64
			for r := 0; r < tc.rounds; r++ {
				svbs := make([]*core.SharedVariableBuffer, tc.sessions)
				outs := make([]<-chan sessionOutcome, tc.sessions)
				var failed chan error
				if tc.sever == "" {
					failed = make(chan error, 1)
					spec := w.spec
					spec.Name += "!"
					w.id++
					if err := w.f.Open(w.id, OpenReq{
						Prog: w.prog, SVB: w.newSVB(), Spec: spec, Hash: spec.Hash(), Tables: w.tables,
						OnDone: func(_ *Stats, err error) { w.finished(); failed <- err },
					}); err != nil {
						t.Fatal(err)
					}
				}
				for i := range svbs {
					svbs[i] = w.newSVB()
					outs[i] = w.open(t, svbs[i], true)
				}
				if failed != nil {
					if err := <-failed; err == nil || !strings.Contains(err.Error(), "failing session") {
						t.Fatalf("round %d: failing session ended with %v", r, err)
					}
				}
				for i, done := range outs {
					out := <-done
					if out.err != nil {
						t.Fatalf("round %d session %d: %v", r, i, out.err)
					}
					retries += out.st.Retries
					lost = lost[:0]
					for _, nd := range out.st.Nodes {
						lost = append(lost, nd.Lost)
					}
					for _, b := range ref.Buffers {
						if !bytes.Equal(svbs[i].Bytes(b.Name), refSVB.Bytes(b.Name)) {
							t.Fatalf("round %d session %d: buffer %q differs from rts.Run's", r, i, b.Name)
						}
					}
				}
			}
			t.Logf("%d sessions: at most %d leases parked of %d allowed, %d re-dispatches", tc.rounds*tc.sessions, high, limit, retries)
			if high > limit {
				t.Errorf("%d leases parked, want at most nodes × Window = %d", high, limit)
			}
			if high == 0 {
				t.Error("no lease was parked: nothing was recycled")
			}
			if tc.sever != "" && (retries == 0 || !lost[1] || !lost[2]) {
				t.Errorf("nodes 1 and 2 should be lost and their leases re-dispatched: %d retries, lost %v", retries, lost)
			}
			w.f.Close() //nolint:errcheck
			for i, werr := range w.wait() {
				if werr != nil && !lost[i] {
					t.Errorf("node %d: %v", i, werr)
				}
			}
		})
	}
}

// modelCounts counts, for one program object, the calls its Access models
// received and the instances of modelled templates it executed.
type modelCounts struct {
	access, executed atomic.Int64
	instances        int64
}

// countModels wraps every Access model of p, and the body beside it, in
// a counter.
func countModels(p *core.Program) *modelCounts {
	c := new(modelCounts)
	for _, b := range p.Blocks {
		for _, t := range b.Templates {
			if t.Access == nil {
				continue
			}
			c.instances += int64(t.Instances)
			model, body := t.Access, t.Body
			t.Access = func(ctx core.Context) []core.MemRegion { c.access.Add(1); return model(ctx) }
			t.Body = func(ctx core.Context) { c.executed.Add(1); body(ctx) }
		}
	}
	return c
}

// TestWarmSessionCallsNoAccessModel counts model calls on both sides of
// the wire. The coordinator asks about every instance once, for its
// program's table. A worker's replica asks about the instances it
// executes, once each: a pooled replica therefore asks nothing after its
// first session, and a replica resolved for one session never asks about
// the half of the program the other node runs.
func TestWarmSessionCallsNoAccessModel(t *testing.T) {
	var mu sync.Mutex
	var replicas []*modelCounts
	w := newWarmFleetRun(t, "FFT", 32, 1, func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		p, svb, err := suiteResolver(spec)
		if err == nil {
			mu.Lock()
			replicas = append(replicas, countModels(p))
			mu.Unlock()
		}
		return p, svb, err
	})
	coord := countModels(w.prog)
	total := coord.instances
	workers := func() (n int, access, executed int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range replicas {
			access += c.access.Load()
			executed += c.executed.Load()
		}
		return len(replicas), access, executed
	}

	w.run(t)
	if got := coord.access.Load(); got != total {
		t.Fatalf("first session: coordinator made %d model calls, want one per instance (%d)", got, total)
	}
	if n, access, executed := workers(); n != 2 || access != total || executed != total {
		t.Fatalf("first session: %d replicas made %d model calls for %d executed instances, want 2, %d, %d", n, access, executed, total, total)
	}
	for i := 0; i < 5; i++ {
		w.run(t)
	}
	if got := coord.access.Load(); got != total {
		t.Fatalf("five warm sessions added %d coordinator model calls", got-total)
	}
	if n, access, executed := workers(); n != 2 || access != total || executed != 6*total {
		t.Fatalf("after five warm sessions: %d replicas, %d model calls, %d executed instances, want 2, %d, %d", n, access, executed, total, 6*total)
	}

	// By spec alone every session resolves two replicas of its own.
	for i := 0; i < 3; i++ {
		mu.Lock()
		known := len(replicas)
		mu.Unlock()
		if out := <-w.open(t, w.newSVB(), false); out.err != nil {
			t.Fatal(out.err)
		}
		mu.Lock()
		fresh := replicas[known:]
		mu.Unlock()
		if len(fresh) != 2 {
			t.Fatalf("cold session %d resolved %d replicas, want 2", i, len(fresh))
		}
		var sum int64
		for node, c := range fresh {
			access, executed := c.access.Load(), c.executed.Load()
			if access != executed || access == 0 || access >= total {
				t.Fatalf("cold session %d, replica %d: %d model calls for %d executed instances of %d", i, node, access, executed, total)
			}
			sum += access
		}
		if sum != total {
			t.Fatalf("cold session %d: replicas made %d model calls between them, want %d", i, sum, total)
		}
	}
	if got := coord.access.Load(); got != total {
		t.Fatalf("cold sessions added %d coordinator model calls", got-total)
	}
	w.close(t)
}

// TestConcurrentSessionsShareOneTable opens two sessions of one program
// object at once on one fleet: both read the program's one access table
// and region index while each keeps its own versions. Bytes and cache
// counters must be those of the same two sessions run one after the other.
func TestConcurrentSessionsShareOneTable(t *testing.T) {
	for _, c := range []struct {
		name          string
		param, unroll int
	}{
		{"FFT", 32, 1},
		{"MMULT", 128, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWarmFleetRun(t, c.name, c.param, c.unroll, suiteResolver)
			w.run(t)
			want, wantCounters := make(map[string][]byte), countersOf(w.last)
			for _, b := range w.prog.Buffers {
				want[b.Name] = append([]byte(nil), w.svb.Bytes(b.Name)...)
			}
			w.run(t)
			if got := countersOf(w.last); got != wantCounters {
				t.Fatalf("second sequential session: counters %+v, first had %+v", got, wantCounters)
			}

			svbs := []*core.SharedVariableBuffer{w.newSVB(), w.newSVB()}
			outs := []<-chan sessionOutcome{w.open(t, svbs[0], true), w.open(t, svbs[1], true)}
			for i, ch := range outs {
				out := <-ch
				if out.err != nil {
					t.Fatalf("concurrent session %d: %v", i, out.err)
				}
				if got := countersOf(out.st); got != wantCounters {
					t.Errorf("concurrent session %d: counters %+v, sequential %+v", i, got, wantCounters)
				}
				for name, b := range want {
					if !bytes.Equal(svbs[i].Bytes(name), b) {
						t.Errorf("concurrent session %d: buffer %q differs from the sequential run", i, name)
					}
				}
			}
			w.close(t)
		})
	}
}
