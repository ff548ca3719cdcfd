// Package dist implements TFluxDist: the TFlux runtime for
// distributed-memory machines.
//
// The paper's Runtime Support section (§3.1) states the two requirements
// for running DDM "in either a shared-memory or a distributed memory
// multiprocessor": the runtime must give DThreads access to the shared
// variables of their producer/consumer relationships, and it must provide
// efficient application↔TSU communication. TFlux's predecessor, D²NOW
// (§7), ran DDM on a network of workstations. This package provides that
// configuration for TFlux: the TSU emulator runs in a coordinator; worker
// nodes host Kernels and hold *replicas* of the shared buffers; the only
// communication between address spaces is the DDM protocol itself, over
// TCP (or any net.Conn).
//
// Execution model:
//
//   - The coordinator owns the tsu.State and the canonical
//     SharedVariableBuffer. Synthesized Inlet/Outlet DThreads execute at
//     the coordinator (the TSU's own load/clear work).
//
//   - When an application DThread instance becomes ready, the coordinator
//     looks up its owning kernel in the TKT, maps the kernel to a node,
//     and builds an Exec carrying the instance plus its declared import
//     regions — full bytes read from the canonical buffers, or
//     (key, version) references to regions the worker already caches.
//     Execs bound for the same node coalesce into one ExecBatch frame,
//     flushed on count/byte thresholds or when the event loop goes idle;
//     a bounded per-node window keeps dispatch pipelined with execution.
//
//   - The worker stages the imports into its replica buffers in frame
//     order (caching full payloads by their (buffer, offset, size) key),
//     runs the bodies on its Kernel goroutines, reads each declared
//     export region out of the replica, and replies with Dones coalesced
//     into DoneBatch frames.
//
//   - The coordinator applies the exports to the canonical buffers
//     *before* performing the Post-Processing Phase, so any consumer
//     dispatched as a result always receives fresh data. This is the
//     import/export contract of the DDM directives, enforced with real
//     address-space separation: a body that touches shared data it did
//     not declare reads stale replica bytes, exactly as it would on a
//     network of workstations.
//
// Within a node, staging and DThread bodies hold the node's memory lock:
// concurrently dispatched DThreads may declare overlapping import regions
// (stencil halos), so unlocked staging could overlap a running body's
// reads. Parallelism across nodes is the distributed axis; a node's
// kernels overlap protocol work (decode, replies) with execution.
//
// Fault tolerance: D²NOW's network-of-workstations regime treats node
// loss as an operating condition, and the coordinator follows suit.
// Every in-flight Exec is tracked in a lease; nodes are declared dead on
// transport errors, missed heartbeats (Ping/Pong frames), protocol
// violations, or expired leases, and their leases re-dispatch to
// surviving nodes with capped exponential backoff. A Done is accepted
// only while a live lease binds its (instance, node) pair, so exports
// apply exactly once even when a failover races a slow network — safe to
// re-execute precisely because of the import/export contract above. The
// run completes on any non-empty subset of the starting nodes; tuning
// lives in Options (CoordinateOpts / RunLocalOpts), and
// internal/chaos provides deterministic fault injection against it.
//
// Everything needed for tests and demos runs in one process via
// RunLocal, which starts the workers on loopback TCP connections; Serve
// and CoordinateOpts are the building blocks for genuinely remote workers.
//
// The wire format is a hand-rolled length-prefixed binary codec (see
// codec.go): a version-tagged type byte, a uvarint payload length, and
// varint-encoded fields, with region payloads appended straight from
// their source buffers into pooled frame buffers. Each frame goes out
// in a single Write, so chaos fault points (internal/chaos) count and
// sever whole frames. Peers speaking another protocol version — or the
// retired gob framing — fail the handshake with a clear error. The
// coherence rule for the worker-side region cache is: applying an
// export bumps the coordinator-tracked version of every region it
// overlaps; a dispatch ships a reference only when its target node is
// known to hold the current version.
package dist
