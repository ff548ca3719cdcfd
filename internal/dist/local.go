package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"tflux/internal/core"
)

// RunLocal runs a distributed execution entirely inside this process:
// `nodes` worker goroutines, each with `kernelsPerNode` Kernels and its
// own replica of the program (built by a fresh call to build), connected
// to the coordinator over loopback TCP.
//
// This is the demonstration and test harness for the distributed
// transport; production deployments call Serve in worker processes and
// CoordinateOpts with real connections.
// It returns the coordinator's canonical buffers so callers can read the
// program's results.
func RunLocal(build func() (*core.Program, *core.SharedVariableBuffer), nodes, kernelsPerNode int) (*Stats, *core.SharedVariableBuffer, error) {
	return RunLocalOpts(build, nodes, kernelsPerNode, Options{})
}

// loopback is the in-process worker set behind RunLocalOpts and
// NewLocalFleet: `nodes` goroutines running serve, each on the worker end
// of a loopback TCP connection whose coordinator end is conns[i] (wrapped
// by wrap when non-nil — the fault-injection hook).
type loopback struct {
	conns []net.Conn
	wg    sync.WaitGroup
	errs  []error // errs[i] is worker i's result, valid after wg.Wait
}

// newLoopback dials and accepts pairwise so worker i IS coordinator node
// i — the failover bookkeeping (Stats.Nodes[i].Lost) and errs[i] must
// agree on which node is which, and concurrent dials would leave the
// accept order arbitrary. A set-up failure aborts the workers already
// started.
func newLoopback(nodes int, wrap func(node int, c net.Conn) net.Conn, serve func(net.Conn) error) (*loopback, error) {
	if nodes < 1 {
		nodes = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	lb := &loopback{conns: make([]net.Conn, 0, nodes), errs: make([]error, nodes)}
	for i := 0; i < nodes; i++ {
		wconn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, lb.abort(fmt.Errorf("dist: dial node %d: %w", i, err))
		}
		c, err := ln.Accept()
		if err != nil {
			wconn.Close() //nolint:errcheck
			return nil, lb.abort(fmt.Errorf("dist: accept: %w", err))
		}
		lb.wg.Add(1)
		go func(i int) {
			defer lb.wg.Done()
			lb.errs[i] = serve(wconn)
		}(i)
		if wrap != nil {
			c = wrap(i, c)
		}
		lb.conns = append(lb.conns, c)
	}
	return lb, nil
}

// abort closes the coordinator ends, so workers blocked in serve unwind,
// and returns cause with the errors they exit with.
func (lb *loopback) abort(cause error) error {
	for _, c := range lb.conns {
		c.Close() //nolint:errcheck
	}
	return lb.join(cause, nil)
}

// join waits for the workers and folds their errors onto base, skipping
// nodes whose loss the coordinator already handled (lostOK, may be nil).
func (lb *loopback) join(base error, lostOK func(i int) bool) error {
	lb.wg.Wait()
	errs := []error{base}
	for i, werr := range lb.errs {
		if werr == nil || (lostOK != nil && lostOK(i)) {
			continue
		}
		errs = append(errs, fmt.Errorf("dist: node %d: %w", i, werr))
	}
	return errors.Join(errs...)
}

// RunLocalOpts is RunLocal with resilience and observability tuned by
// opt (opt.WrapConn, when set, wraps each coordinator-side connection —
// the fault-injection hook). Worker errors are surfaced alongside any
// coordinator error instead of being dropped; errors from nodes the
// coordinator deliberately failed over are expected casualties and are
// not reported when the run itself succeeded.
func RunLocalOpts(build func() (*core.Program, *core.SharedVariableBuffer), nodes, kernelsPerNode int, opt Options) (*Stats, *core.SharedVariableBuffer, error) {
	lb, err := newLoopback(nodes, opt.WrapConn, func(c net.Conn) error { return Serve(c, kernelsPerNode, build) })
	if err != nil {
		return nil, nil, err
	}
	prog, svb := build()
	if prog == nil {
		return nil, nil, lb.abort(errors.New("dist: program builder returned nil"))
	}
	stats, runErr := CoordinateOpts(prog, svb, lb.conns, opt)
	return stats, svb, lb.join(runErr, func(i int) bool {
		return runErr == nil && stats != nil && stats.Nodes[i].Lost
	})
}

// NewLocalFleet builds a loopback worker fleet inside this process:
// `nodes` ServeFleet goroutines, each with `kernelsPerNode` Kernels,
// resolving program specs through resolve, connected to a Fleet over
// loopback TCP (opt.WrapConn wraps each coordinator-side connection —
// the fault-injection hook). This is the self-hosted harness tfluxd and
// the serve tests run on; production deployments run ServeFleet in
// worker processes and NewFleet over real connections.
//
// The returned wait function blocks until every worker goroutine has
// exited — call it after Fleet.Close — and returns the per-node worker
// errors (nil entries for clean shutdowns).
func NewLocalFleet(nodes, kernelsPerNode int, resolve Resolver, opt Options) (*Fleet, func() []error, error) {
	lb, err := newLoopback(nodes, opt.WrapConn, func(c net.Conn) error { return ServeFleet(c, kernelsPerNode, resolve) })
	if err != nil {
		return nil, nil, err
	}
	f, err := NewFleet(lb.conns, opt)
	if err != nil {
		// NewFleet closed the connections; collect the workers.
		return nil, nil, lb.join(err, nil)
	}
	wait := func() []error {
		lb.wg.Wait()
		return lb.errs
	}
	return f, wait, nil
}
