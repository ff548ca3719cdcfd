package dist

import (
	"errors"
	"fmt"
	"net"
	"time"

	"tflux/internal/core"
	"tflux/internal/tsu"
)

// NodeStats reports one worker node's activity.
type NodeStats struct {
	Kernels  int
	Executed int64
	// Lost is set when the coordinator declared the node dead and
	// re-dispatched its in-flight work; LostReason says why.
	Lost       bool
	LostReason string
}

// Stats is the outcome of one distributed program run (one session on a
// Fleet).
type Stats struct {
	Elapsed  time.Duration
	TSU      tsu.Stats
	BytesOut int64 // import bytes shipped to workers (re-dispatches included)
	BytesIn  int64 // export bytes received from workers
	Messages int64 // ExecBatch sends + DoneBatch receipts carrying this program (heartbeats excluded)
	Nodes    []NodeStats

	// Batches counts ExecBatch frames sent; Messages/Batches below the
	// instance count is the dispatch coalescing at work.
	Batches int64
	// RegionCacheHits counts import regions shipped as (key, version)
	// references because the target worker's cached copy was current;
	// RegionCacheMisses counts full-payload ships. BytesSaved is the
	// wire bytes the references elided.
	RegionCacheHits   int64
	RegionCacheMisses int64
	BytesSaved        int64

	// Failovers counts nodes declared dead while this program ran;
	// Retries counts its Execs re-dispatched to surviving nodes;
	// DupeDones counts late or duplicate Done frames that were discarded
	// instead of double-applying exports.
	Failovers int64
	Retries   int64
	DupeDones int64
}

// CoordinateOpts runs the DDM program across the given worker
// connections: the TSU emulator and the canonical shared buffers live
// here; DThreads execute on the workers. Every buffer the program
// declares must be registered in svb with at least the declared size. It
// blocks until the final Block's Outlet completes. Batching, caching,
// resilience and observability are tuned by opt (the zero value selects
// the defaults). It is the single-program convenience over Fleet: build
// the fleet, run one session, close the fleet (which owns and releases
// the connections on every path).
//
// Dispatch is batched and pipelined: ready instances bound for the same
// node coalesce into one ExecBatch frame (flushed on BatchCount /
// BatchBytes thresholds, or when the event loop goes idle), and each
// node runs up to Window instances concurrently in flight, so dispatch
// overlaps remote execution instead of ping-ponging per instance.
// Import regions whose content is unchanged since the target worker
// last received them ship as (key, version) cache references instead of
// bytes; a region's version bumps when an applied export overlaps it.
//
// The coordinator tracks every in-flight Exec in a per-instance lease —
// batching does not coarsen failover. A node that drops its connection,
// misses heartbeats, violates the protocol, or sits on an expired lease
// is declared dead, its leases are re-dispatched to surviving nodes
// with capped exponential backoff, and late Dones from it are discarded
// by the (instance, node) lease check — so every instance's exports
// apply exactly once even when a batch frame is severed mid-write. The
// run completes on any non-empty subset of the starting nodes and fails
// hard only when every node is lost.
func CoordinateOpts(prog *core.Program, svb *core.SharedVariableBuffer, conns []net.Conn, opt Options) (*Stats, error) {
	if len(conns) == 0 {
		return nil, errors.New("dist: no worker connections")
	}
	// Pre-handshake buffer check: a coordinator-side setup mistake must
	// release the workers abruptly (they may already be blocked reading)
	// rather than hand them a clean Shutdown that masks the failure.
	if err := svb.Covers(prog.Buffers); err != nil {
		for _, c := range conns {
			c.Close() //nolint:errcheck // unblocking teardown
		}
		return nil, fmt.Errorf("dist: %w", err)
	}
	if opt.Sink != nil {
		opt.Sink.Begin()
	}
	f, err := NewFleet(conns, opt)
	if err != nil {
		return nil, err // NewFleet closed the connections
	}
	st, runErr := f.Run(prog, svb)
	f.Close() //nolint:errcheck // Close is best-effort teardown
	return st, runErr
}
