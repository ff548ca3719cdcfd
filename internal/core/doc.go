// Package core defines the Data-Driven Multithreading (DDM) program model
// used by every TFlux platform implementation in this repository.
//
// A DDM program is a set of Data-Driven Threads (DThreads). Each DThread is
// a non-overlapping section of code that executes sequentially (control
// flow) once all of its producers have completed; scheduling between
// DThreads is performed in dataflow order by a Thread Synchronization Unit
// (TSU). The dependencies between DThreads form the program's
// Synchronization Graph: nodes are DThreads, arcs are producer→consumer
// data dependencies.
//
// This package models:
//
//   - Template: the static description of a DThread — its identifier, its
//     body, the number of dynamic instances (contexts) it has, its consumer
//     arcs, and optional cost/memory-access models used by the simulated
//     platforms.
//   - Mapping: how a producer context maps onto consumer contexts
//     (one-to-one, reduction, broadcast, scatter/gather, constant).
//   - Block: a DDM Block, the unit the TSU loads at once. Programs with
//     arbitrarily large synchronization graphs are split into Blocks; each
//     Block is delimited by an Inlet DThread (loads the Block's metadata
//     into the TSU) and an Outlet DThread (clears the TSU resources and
//     chains to the next Block). Inlet/Outlet threads are synthesized by
//     the TSU layer, not described here.
//   - Program: an ordered list of Blocks plus the shared buffers the
//     DThreads communicate through.
//   - SharedVariableBuffer: the registry of byte slices backing those
//     buffers (paper §4.3), with the one region bounds predicate
//     (InBounds) and the two checked operations (Covers, Slice) every
//     platform that moves bytes by declared region goes through.
//   - AccessTable / RegionIndex: a program's Access models evaluated once
//     — one row per instance, and for the distributed data plane every
//     distinct import region interned as a dense id in per-buffer offset
//     order. The program builds its table the first time ddmlint or a
//     Fleet asks (its only lock is that sync.Once) and is frozen from
//     then on.
//
// The package is pure data + validation: it has no scheduling logic and
// starts no goroutine. The TSU implementations (software emulator, which
// TFluxCell's PPE reuses, hardware-device model, Fleet loop) all consume
// these structures.
package core
