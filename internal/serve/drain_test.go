package serve

import (
	"net"
	"sync"
	"testing"

	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/obs"
)

// heldResolver adds a "held" workload to the harness registry: scale
// over Param bytes whose instances in ctx [4,8) announce themselves on
// arrived and then block until hold closes. On a 4-node × 2-kernel
// fleet with Param 16, that ctx range is exactly node 1's partition —
// the workload parks live work on node 1 (a blocked body holds its
// replica's memory lock, so one held instance pins the whole program
// there) so a sever leaves every program with outstanding instances to
// fail over.
func heldResolver(tw *testWorkloads, arrived chan struct{}, hold chan struct{}) dist.Resolver {
	base := tw.resolver()
	return func(spec dist.ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		if spec.Name != "held" {
			return base(spec)
		}
		n := spec.Param
		p, svb, in, out := buildScale(n, nil)
		p.Name = "held"
		p.Blocks[0].Templates[0].Body = func(ctx core.Context) {
			if ctx >= 4 && ctx < 8 {
				select {
				case arrived <- struct{}{}:
				default: // post-failover re-executions need not report
				}
				<-hold
			}
			out[ctx] = in[ctx]*3 + 7
		}
		return p, svb, nil
	}
}

// TestDrainUnderChaos severs one worker while three tenants' programs
// are mid-flight on it. All three must complete byte-identical on the
// survivors, each charged exactly the one failover with at least one
// re-dispatched instance, and the fleet must keep serving afterwards.
func TestDrainUnderChaos(t *testing.T) {
	tw := newTestWorkloads()
	arrived := make(chan struct{}, 64)
	hold := make(chan struct{})
	res := heldResolver(tw, arrived, hold)

	// Capture node 1's coordinator-side connection so the test can
	// sever it mid-run, and the fleet's metrics registry so it can see
	// when node 1 holds every program's leases.
	var severMu sync.Mutex
	var severConn net.Conn
	reg := obs.NewRegistry()
	d := startDaemon(t, 4, 2, tw, Options{Resolver: res, MaxPrograms: 8}, dist.Options{
		Metrics: reg,
		WrapConn: func(node int, c net.Conn) net.Conn {
			if node == 1 {
				severMu.Lock()
				severConn = c
				severMu.Unlock()
			}
			return c
		},
	})
	releasedHold := false
	defer func() {
		if !releasedHold {
			close(hold)
		}
		for i, err := range d.stop(t) {
			if err != nil && i != 1 {
				t.Errorf("surviving node %d: %v", i, err)
			}
		}
	}()

	const programs = 3
	inputs := make([][]byte, programs)
	pend := make([]*Pending, programs)
	clients := make([]*Client, programs)
	for i := range clients {
		clients[i] = d.dial(t, string(rune('a'+i))+"-team")
		defer clients[i].Close() //nolint:errcheck
		in := make([]byte, 16)
		for j := range in {
			in[j] = byte(17*i + j)
		}
		inputs[i] = in
		p, err := clients[i].Submit(dist.ProgramSpec{Name: "held", Param: 16},
			[]dist.RegionData{{Buffer: "in", Offset: 0, Data: in, Size: 16}})
		if err != nil {
			t.Fatal(err)
		}
		pend[i] = p
	}

	// Wait until node 1 is executing a held body and carries all three
	// programs' node-1 partitions (3 programs × ctx 4..7 = 12 leased
	// instances) — then the sever strands live work from every session.
	waitSnapshot(t, d.srv, "three running", func(s Snapshot) bool { return s.Running == programs })
	<-arrived
	inflight := reg.Gauge("dist.node1.inflight")
	waitSnapshot(t, d.srv, "node 1 holding 12 leases", func(Snapshot) bool {
		return inflight.Value() == 4*programs
	})

	severMu.Lock()
	conn := severConn
	severMu.Unlock()
	if conn == nil {
		t.Fatal("node 1 connection was never wrapped")
	}
	conn.Close() //nolint:errcheck
	waitSnapshot(t, d.srv, "node 1 marked dead", func(s Snapshot) bool { return s.AliveNodes == 3 })
	releasedHold = true
	close(hold) // unblock re-executions on survivors (and node 1's doomed lanes)

	for i, p := range pend {
		out, err := p.Wait()
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if out.Err != "" {
			t.Fatalf("program %d failed: %s", i, out.Err)
		}
		wantScaled(t, inputs[i], out.Buffer("out"), "drained program")
		if out.Failovers != 1 {
			t.Errorf("program %d: failovers = %d, want 1", i, out.Failovers)
		}
		if out.Retries < 1 {
			t.Errorf("program %d: retries = %d, want >= 1 (its node-1 instances were re-dispatched)", i, out.Retries)
		}
	}

	// The fleet keeps serving new submissions on the survivors.
	p, err := clients[0].Submit(dist.ProgramSpec{Name: "scale", Param: 32},
		[]dist.RegionData{{Buffer: "in", Offset: 0, Data: inputs[0], Size: 16}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil || out.Err != "" {
		t.Fatalf("post-sever program: %v / %+v", err, out)
	}
}
