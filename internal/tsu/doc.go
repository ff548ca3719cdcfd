// Package tsu implements the Thread Synchronization Unit (TSU) Group of the
// TFlux platform.
//
// The TSU is the component that performs data-driven scheduling: it holds
// the Synchronization Graph metadata of the currently loaded DDM Block,
// tracks the Ready Count of every DThread instance, and hands ready
// DThreads to the Kernels. TFlux groups the per-CPU TSUs into a single TSU
// Group; the units of the group split into per-kernel state and global
// state (paper §3.3).
//
// This package separates the TSU into an immutable half built once and the
// mutable engines that run over it:
//
//   - The thread table (table.go): one builder flattens a set of Blocks
//     into a dense []tmplInfo indexed by ThreadID, with pre-resolved arc
//     tables and the sparse-ID guard, and one routine expands a completed
//     instance's arcs over it. The batch State, the frozen Tables and the
//     streaming WindowedSM all read this table; nothing else in the
//     package builds arcs or calls a Mapping's AppendTargets.
//
//   - State: the pure synchronization engine — Synchronization Memories
//     (one per kernel, holding the Ready Counts of the instances that
//     kernel owns), the Thread-to-Kernel Table (TKT) used for Thread
//     Indexing (§4.2), Block sequencing with synthesized Inlet/Outlet
//     DThreads (§2), and the post-processing arc expansion. State has no
//     goroutines and no locks: in single-driver form, exactly one driver
//     mutates it — the Cell PPE emulator polling CommandBuffers (package
//     cellsim), the memory-mapped hardware device model (package hardsim),
//     the TFluxDist fleet loop (package dist), or the TFluxSoft emulator
//     goroutine (package rts). The plain Ready Count decrement is written
//     once (applyDec) and charged to whichever writer calls it. The TKT is
//     the paper's closed-form chunked split, ctx → ctx·kernels/instances.
//     Tables freezes a State's immutable half plus per-block SM snapshots
//     so a daemon builds them once per program and restores pooled States
//     by memcpy.
//
//   - ShardedState: the parallel driver mode. The mutable bookkeeping is
//     partitioned into shards along TKT ownership; each shard is stepped
//     by one kernel's lane, which applies intra-shard decrements lock-free
//     and routes cross-shard decrements through per-shard inbox TUBs
//     drained at step boundaries. This replaces the single dedicated
//     emulator with bookkeeping spread across the kernels themselves; see
//     the ShardedState type for the two invariants that make it safe.
//
//   - TUB: the Thread-to-Update Buffer of the software TSU emulator
//     (§4.2). Kernels deposit completion records into the first available
//     segment using a non-blocking try-lock so that at most one segment is
//     held by any kernel at a time; the drainer empties segments in bulk.
//     A single-lock mode exists as an ablation of the segmentation design,
//     and an unbounded mode serves as the sharded engine's cross-shard
//     inbox (where a blocking Push could deadlock two shards).
//
//   - WindowedSM: the streaming engine. It shares the thread table and
//     the arc expansion, and keeps its own mutable half — a ring of
//     generation-tagged slots whose Ready Counts are atomics any worker may
//     decrement — because that is a different concurrency model from the
//     single-writer Synchronization Memories above.
//
// Read-only queries (arc expansion, TKT lookup) touch only immutable
// tables built at construction time and are safe to call from every kernel
// concurrently — this is the "Local TSU" half of the TSU Group. Mutating
// calls (Decrement, Done) belong to the single driver, or, in sharded
// mode, to the owning shard's stepper via its Lane.
package tsu
