package dist

import (
	"net"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
	"tflux/internal/tsu"
)

// Options tunes the coordinator's batching, caching, observability and
// resilience. The zero value means "defaults": batches of up to 32
// Execs / 256 KiB, a 64-instance in-flight window per node, region
// caching on, heartbeats every 250ms, four missed intervals before a
// node is declared dead, 30s leases, a 10s handshake deadline, and
// re-dispatch backoff doubling from 2ms up to 250ms. Two bounds are
// fixed: each frame send has a writeTimeout deadline, and an instance
// gets maxAttempts dispatches before the run hard-fails.
type Options struct {
	// Sink (may be nil) receives one DistRPC event per Exec→Done round
	// trip and one ThreadComplete per remote execution on the owning
	// node's lane, plus TSUCommand events for coordinator-side TSU work
	// on lane len(conns). The ThreadComplete span is the round trip as
	// observed from the coordinator — remote body time plus transport.
	Sink obs.Sink
	// Metrics (may be nil) receives the RPC latency histogram and the
	// traffic and TSU totals.
	Metrics *obs.Registry

	// BatchCount caps how many Execs coalesce into one ExecBatch frame.
	// Zero means the default (32); negative sends one Exec per frame.
	BatchCount int
	// BatchBytes flushes a node's pending batch once its shipped
	// payload bytes reach this. Zero means the default (256 KiB);
	// negative flushes on every payload-carrying Exec.
	BatchBytes int64
	// Window bounds how many instances may be in flight on one node at
	// a time; ready instances beyond it are deferred until completions
	// free slots, so dispatch overlaps execution without unbounded
	// queueing. Zero means the default (64); negative means 1.
	Window int
	// DisableRegionCache ships full import bytes on every dispatch
	// instead of (key, version) references to worker-cached regions.
	DisableRegionCache bool

	// Heartbeat is the Ping interval per link. Zero means the default;
	// negative disables heartbeats (failure detection then relies on
	// recv errors and lease expiry alone).
	Heartbeat time.Duration
	// HeartbeatMisses is how many Heartbeat intervals without any
	// inbound frame mark a node dead. Zero means the default.
	HeartbeatMisses int
	// LeaseTimeout bounds how long one dispatched Exec may stay
	// outstanding before its node is declared dead. Zero means the
	// default; negative disables lease expiry.
	LeaseTimeout time.Duration
	// HandshakeTimeout bounds the Hello recv per node, so a
	// connected-but-silent worker fails the handshake instead of
	// hanging the coordinator. Zero means the default.
	HandshakeTimeout time.Duration

	// RetryBase is the first re-dispatch backoff delay; each further
	// attempt for the same instance doubles it up to RetryCap. Zero
	// means the defaults.
	RetryBase time.Duration
	RetryCap  time.Duration

	// WrapConn, when non-nil, wraps each coordinator-side connection of
	// RunLocalOpts before use — the hook the chaos package plugs into.
	WrapConn func(node int, c net.Conn) net.Conn
}

// FaultDrill returns o set up for a fault-injection drill: wrap (a chaos
// plan's Wrap, bound to its log) goes around every coordinator-side
// connection, and a dead node is found in tens of milliseconds rather
// than at the production-paced defaults, so the drill ends promptly.
func (o Options) FaultDrill(wrap func(node int, c net.Conn) net.Conn) Options {
	o.WrapConn = wrap
	o.Heartbeat = 20 * time.Millisecond
	o.HeartbeatMisses = 5
	o.LeaseTimeout = 2 * time.Second
	return o
}

// Batching and resilience defaults.
const (
	defaultBatchCount       = 32
	defaultBatchBytes       = 256 << 10
	defaultWindow           = 64
	defaultHeartbeat        = 250 * time.Millisecond
	defaultHeartbeatMisses  = 4
	defaultLeaseTimeout     = 30 * time.Second
	defaultHandshakeTimeout = 10 * time.Second
	defaultRetryBase        = 2 * time.Millisecond
	defaultRetryCap         = 250 * time.Millisecond
)

const (
	// writeTimeout bounds each coordinator frame send, so a stalled
	// worker surfaces as a failed node instead of blocking the loop.
	writeTimeout = 10 * time.Second
	// maxAttempts caps dispatch attempts per instance (first dispatch
	// included) before the run hard-fails.
	maxAttempts = 8
)

// withDefaults fills zero fields with the package defaults.
func (o Options) withDefaults() Options {
	switch {
	case o.BatchCount == 0:
		o.BatchCount = defaultBatchCount
	case o.BatchCount < 0:
		o.BatchCount = 1
	}
	switch {
	case o.BatchBytes == 0:
		o.BatchBytes = defaultBatchBytes
	case o.BatchBytes < 0:
		o.BatchBytes = 1
	}
	switch {
	case o.Window == 0:
		o.Window = defaultWindow
	case o.Window < 0:
		o.Window = 1
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = defaultHeartbeat
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = defaultHeartbeatMisses
	}
	if o.LeaseTimeout == 0 {
		o.LeaseTimeout = defaultLeaseTimeout
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = defaultHandshakeTimeout
	}
	if o.RetryBase <= 0 {
		o.RetryBase = defaultRetryBase
	}
	if o.RetryCap <= 0 {
		o.RetryCap = defaultRetryCap
	}
	return o
}

// lease tracks one in-flight Exec: where it was sent, when, with how
// many bytes, and how many dispatch attempts it has consumed. The
// coordinator re-dispatches a lease when its node dies or the lease
// expires, and uses the (instance, node) pair to deduplicate late Dones
// from slow-but-alive nodes.
type lease struct {
	inst     core.Instance
	kern     tsu.KernelID // TKT owner kernel (global id)
	node     int          // node currently executing it
	attempts int          // dispatch attempts so far (first dispatch = 1)
	gen      int64        // bumped per re-dispatch schedule; stale timers no-op
	wall     time.Time    // last dispatch wall time (lease start)
	at       time.Duration
	bytes    int64     // import bytes shipped with the last dispatch
	failedAt time.Time // when its node was declared dead (failover latency)
}

// poison overwrites a freed lease with values no live lease holds — node
// and generation −1, an instance no program has — so a read after
// Fleet.putLease indexes out of range or matches nothing. Only tests turn
// the hook on, so it stays out of line, out of the loop's hot functions.
//
//go:noinline
func (ls *lease) poison() {
	w := uint64(0xA5A5A5A5A5A5A5A5) // a variable, so the signed conversions wrap
	*ls = lease{
		inst: core.Instance{Thread: core.ThreadID(w), Ctx: core.Context(w)},
		kern: tsu.KernelID(-1), node: -1, attempts: -1, gen: -1, bytes: -1,
	}
}

// backoffDelay returns the capped exponential backoff before the given
// re-dispatch (retry 1 is the first re-dispatch).
func backoffDelay(retry int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}
