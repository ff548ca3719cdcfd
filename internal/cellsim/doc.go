// Package cellsim models TFluxCell: the TFlux implementation for the
// Cell/BE heterogeneous multicore (paper §4.3), where DThreads run on the
// SPE co-processors and the TSU is a software module on the PPE.
//
// The substrate reproduces the Cell-specific mechanisms on commodity
// hardware (our replacement for the paper's PlayStation 3):
//
//   - Each compute node is an "SPE" goroutine with a private, capacity-
//     limited Local Store arena (256 KB minus a code/stack reserve, like
//     the real SPU). A DThread may only execute if its declared imports
//     and exports fit in the Local Store — the exact constraint that caps
//     QSORT's problem sizes in §6.3.
//
//   - Shared data moves through explicit DMA: before a DThread runs, its
//     import regions are staged from main memory (the
//     core.SharedVariableBuffer registry of Go slices) into the Local Store
//     arena in bounded-size DMA transfers; after it runs, its export
//     regions are staged back. The staging copies are traffic-equivalent:
//     bodies compute on the canonical shared slices (so results are
//     exact), while the arena copies pay the memory-bandwidth cost a real
//     SPE pays, in both directions. Transfers are chunked at the Cell's
//     16 KB DMA limit.
//
//   - A Kernel tells its TSU about events by placing commands into its
//     CommandBuffer (a small ring, sized like the paper's 128-byte
//     buffer); the PPE-side TSU emulator loops over all CommandBuffers,
//     updates the TSU state, and notifies SPEs of newly ready DThreads
//     through bounded mailboxes (depth 4, like the SPU inbound mailbox).
//
// Timing is wall-clock: like the paper's native PS3 runs, speedups come
// from real elapsed time, and the staging/mailbox overheads are real work.
package cellsim
