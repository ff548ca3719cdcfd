package serve

import (
	"net"
	"sync"
	"testing"
	"time"

	"tflux/internal/core"
	"tflux/internal/dist"
)

// testWorkloads is the resolver registry the serve tests run against:
//
//	"scale"  out[i] = in[i]*3 + 7 over Param bytes — the well-behaved
//	         tenant workload, input supplied by submission overlay
//	"gated"  scale whose last instance blocks on the harness gate — for
//	         pinning a program in the running state without starving the
//	         shared worker lanes
//	"evil"   declares only its own "out" but its Access model writes a
//	         "victim" buffer it never declared — the isolation attacker
//	         (its worker-side replica registers "victim" locally, so the
//	         export genuinely arrives at the coordinator)
type testWorkloads struct {
	mu    sync.Mutex
	gate  chan struct{}
	order []string // tenant tags recorded by "tagged" bodies, in execution order
}

func newTestWorkloads() *testWorkloads {
	return &testWorkloads{gate: make(chan struct{})}
}

func (tw *testWorkloads) release() { close(tw.gate) }

func (tw *testWorkloads) executionOrder() []string {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return append([]string(nil), tw.order...)
}

func scaleBody(in, out []byte) func(core.Context) {
	return func(ctx core.Context) {
		out[ctx] = in[ctx]*3 + 7
	}
}

func buildScale(n int, body func(core.Context)) (*core.Program, *core.SharedVariableBuffer, []byte, []byte) {
	in := make([]byte, n)
	out := make([]byte, n)
	p := core.NewProgram("scale")
	p.AddBuffer("in", int64(n))
	p.AddBuffer("out", int64(n))
	b := p.AddBlock()
	work := core.NewTemplate(1, "scale", body)
	work.Instances = core.Context(n)
	work.Access = func(ctx core.Context) []core.MemRegion {
		i := int64(ctx)
		return []core.MemRegion{
			{Buffer: "in", Offset: i, Size: 1},
			{Buffer: "out", Offset: i, Size: 1, Write: true},
		}
	}
	b.Add(work)
	svb := core.NewSharedVariableBuffer()
	svb.Register("in", in)
	svb.Register("out", out)
	return p, svb, in, out
}

func (tw *testWorkloads) resolver() dist.Resolver {
	return func(spec dist.ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		n := spec.Param
		if n <= 0 {
			n = 64
		}
		switch spec.Name {
		case "scale":
			p, svb, in, out := buildScale(n, nil)
			p.Blocks[0].Templates[0].Body = scaleBody(in, out)
			return p, svb, nil
		case "gated":
			// Blocks only the *last* instance on the gate: the program
			// cannot complete until release(), but it pins only one worker
			// lane, so other programs still execute concurrently.
			p, svb, in, out := buildScale(n, nil)
			last := core.Context(n - 1)
			p.Blocks[0].Templates[0].Body = func(ctx core.Context) {
				if ctx == last {
					<-tw.gate
				}
				out[ctx] = in[ctx]*3 + 7
			}
			return p, svb, nil
		case "tagged":
			// One-instance program whose body appends its tag (the
			// spec's Param picks the tag index; Unroll would be
			// normalized by admission) to the shared order log; used to
			// observe scheduling order.
			p, svb, _, out := buildScale(1, nil)
			tag := tagNames[spec.Param%len(tagNames)]
			p.Blocks[0].Templates[0].Body = func(ctx core.Context) {
				tw.mu.Lock()
				tw.order = append(tw.order, tag)
				tw.mu.Unlock()
				out[0] = 1
			}
			return p, svb, nil
		case "overflow":
			// Declares "out" as 8 bytes but its Access model (and its
			// worker replica) use 64 — the export overflows the
			// declared size.
			out := make([]byte, 64)
			p := core.NewProgram("overflow")
			p.AddBuffer("out", 8)
			b := p.AddBlock()
			t := core.NewTemplate(1, "overflow", func(core.Context) {
				for i := range out {
					out[i] = 0xAB
				}
			})
			t.Instances = 1
			t.Access = func(core.Context) []core.MemRegion {
				return []core.MemRegion{{Buffer: "out", Offset: 0, Size: 64, Write: true}}
			}
			b.Add(t)
			svb := core.NewSharedVariableBuffer()
			svb.Register("out", out)
			return p, svb, nil
		case "evil":
			out := make([]byte, 64)
			victim := make([]byte, 64)
			p := core.NewProgram("evil")
			p.AddBuffer("out", 64)
			b := p.AddBlock()
			t := core.NewTemplate(1, "evil", func(core.Context) {
				for i := range victim {
					victim[i] = 0xEE
				}
			})
			t.Instances = 1
			t.Access = func(core.Context) []core.MemRegion {
				return []core.MemRegion{
					{Buffer: "victim", Offset: 0, Size: 64, Write: true},
					{Buffer: "out", Offset: 0, Size: 64, Write: true},
				}
			}
			b.Add(t)
			svb := core.NewSharedVariableBuffer()
			svb.Register("out", out)
			svb.Register("victim", victim)
			return p, svb, nil
		}
		return WorkloadResolver()(spec)
	}
}

var tagNames = []string{"A", "B", "C", "D"}

// daemon is one in-process tfluxd: loopback fleet, server, listener.
type daemon struct {
	srv  *Server
	ln   net.Listener
	flt  *dist.Fleet
	wait func() []error
}

// startDaemon spins up a complete in-process daemon. Worker errors
// from deliberately severed nodes are the caller's to filter.
func startDaemon(t *testing.T, nodes, kernelsPerNode int, tw *testWorkloads, opt Options, distOpt dist.Options) *daemon {
	t.Helper()
	// Workers and the daemon resolve through the same registry — the
	// spec-resolution model the service layer is built on. A custom
	// opt.Resolver is therefore shared with the worker side too.
	res := opt.Resolver
	if res == nil {
		res = tw.resolver()
	}
	flt, wait, err := dist.NewLocalFleet(nodes, kernelsPerNode, res, distOpt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Resolver = res
	srv, err := New(flt, opt)
	if err != nil {
		flt.Close() //nolint:errcheck
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		flt.Close() //nolint:errcheck
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns when ln closes
	return &daemon{srv: srv, ln: ln, flt: flt, wait: wait}
}

func (d *daemon) stop(t *testing.T) []error {
	t.Helper()
	d.ln.Close()  //nolint:errcheck
	d.srv.Close() //nolint:errcheck
	d.flt.Close() //nolint:errcheck
	return d.wait()
}

func (d *daemon) dial(t *testing.T, tenant string) *Client {
	t.Helper()
	c, err := Dial(d.ln.Addr().String(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitSnapshot polls until cond holds or the deadline passes.
func waitSnapshot(t *testing.T, s *Server, what string, cond func(Snapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Snapshot()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; snapshot: %+v", what, s.Snapshot())
}

// wantScaled checks out = in*3+7 byte for byte.
func wantScaled(t *testing.T, in, out []byte, what string) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("%s: out is %d bytes, want %d", what, len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i]*3+7 {
			t.Fatalf("%s: out[%d] = %d, want %d (in=%d)", what, i, out[i], in[i]*3+7, in[i])
		}
	}
}
