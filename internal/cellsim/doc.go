// Package cellsim models TFluxCell: the TFlux implementation for the
// Cell/BE heterogeneous multicore (paper §4.3), where DThreads run on the
// SPE co-processors and the TSU is a software module on the PPE.
//
// The substrate reproduces the Cell-specific mechanisms on commodity
// hardware (our replacement for the paper's PlayStation 3):
//
//   - Each compute node is an "SPE" Kernel with a private, capacity-
//     limited Local Store arena (256 KB minus a code/stack reserve, like
//     the real SPU). A DThread may only execute if its declared imports
//     and exports fit in the Local Store — the exact constraint that caps
//     QSORT's problem sizes in §6.3. Arenas are pooled across runs, as a
//     PS3's Local Stores exist once, and a DThread's regions are a row
//     of the program's access table, read once per instance.
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
//   - The runtime around the SPEs is TFluxSoft's own (rts.RunExec), with
//     one Kernel per SPE: its TSU emulator goroutine is the PPE-side TSU,
//     its Thread-to-Update Buffer plays the SPEs' CommandBuffers, and
//     each Kernel's ready queue is its SPE's inbound mailbox. Neither is
//     bounded like the PS3's 128-byte ring and 4-deep mailbox; a bound
//     would only matter where a full ring is priced, on the virtual Cell.
//     The one Cell-specific step is cell.exec, which rts calls with each
//     instance's body: stage in, run, stage out. A DThread that panics,
//     or a program that breaks the TSU, therefore ends Run with an error
//     as it ends rts.Run.
//
// Run's timing is wall-clock: like the paper's native PS3 runs, speedups
// come from real elapsed time, and the staging and dispatch overheads are
// real work. RunVirtual is the same platform as a deterministic hardsim
// machine (Figure 7's): it refuses what Run refuses, by the same Local
// Store walk, and charges each DThread the DMA of the regions Run would
// stage.
package cellsim
