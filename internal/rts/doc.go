// Package rts is the TFlux Runtime Support: the user-level layer that
// executes DDM programs on top of an unmodified operating system (paper
// §3.1–3.2), in the TFluxSoft configuration (§4.2) where the TSU is a
// software module.
//
// Run launches n Kernels. A Kernel is one loop (runner.kernel, Figure 2):
// request the next ready DThread, jump to its code (runner.runBody — the
// only caller of a DThread body, which also times it), perform the
// Post-Processing Phase, repeat; a panic in either half of an iteration
// becomes an aborted run, not a dead process. Every newly ready DThread,
// whoever found it ready, reaches its owner's ready queue through the
// same stage/flush pair. RunExec is the same run with a platform's Exec
// around every body: TFluxCell (package cellsim) is RunExec with one
// Kernel per SPE and an Exec that stages the DThread's data through the
// SPE's Local Store. Who performs the TSU side of the Post-Processing
// Phase depends on whether the Kernel holds a lane onto a sharded TSU:
//
//   - No lane (default): the Kernel expands the completed thread's
//     consumer arcs and deposits the update record into the
//     Thread-to-Update Buffer (TUB). The TSU Emulator — one additional
//     goroutine, mirroring the dedicated CPU of the paper's Figure 4 —
//     drains the TUB, decrements Ready Counts in the per-kernel
//     Synchronization Memories (locating them directly through the
//     Thread-to-Kernel Table), and dispatches newly ready DThreads. One
//     driver serializes every update: this is the plane the sharded one is
//     held to by the equivalence suites.
//
//   - A lane (Options.TSUShards > 1): there is no emulator. The
//     synchronization state is partitioned into shards along TKT
//     ownership, and each Kernel steps the shard it owns at the top of its
//     loop: decrements that land in its own shard are applied lock-free in
//     place, while cross-shard decrements are batched into the owning
//     shard's inbox (a per-shard TUB) and a kick on the owner's ready
//     queue wakes it to drain. This removes the single serializing
//     goroutine that bounds fine-grain scaling.
//
// A panicking body aborts the run: fail closes every ready queue, and pop
// reports the close before any queued work, so at most one more body per
// Kernel starts after the panic.
//
// The paper maps Kernels to POSIX threads; here each Kernel is a
// goroutine, and the Go scheduler plays the role of the OS scheduler the
// runtime sits on. Inlet and Outlet DThreads are scheduled to Kernels like
// any other DThread; their TSU-load/TSU-clear work happens when their
// completion is processed.
//
// Scheduling: a Kernel runs its ready DThreads in arrival order. The
// paper's queue returns the one "most likely to maximize the spatial
// locality" (§3.1) — the instance of the same template with the next
// context relative to the last DThread the Kernel executed. Under the
// chunked TKT the TSU releases each kernel's instances of a template in
// ascending context order, so the oldest arrival already is that
// instance; EXPERIMENTS.md, "Why the ready queue is FIFO", has the
// counts.
package rts
