// Package stream defines the streaming execution mode: DDM programs
// whose context space is unbounded along a designated stream dimension.
//
// A batch program fires a closed context space to completion; a stream
// program repeats one per-window Synchronization Graph forever, once per
// window of W events. The pieces:
//
//   - Pipeline/Stage describe the per-window graph: an entry stage with
//     one instance per event and downstream stages connected by the
//     usual core.Mapping arcs. Validation guarantees the window's firing
//     closure is closed, so a window always retires.
//   - Source injects events at a configured (or unbounded) rate. The
//     run loop admits them into windows; Synchronization Memory slots
//     for windows are recycled by tsu.WindowedSM.
//   - Policy bounds memory under overload: Block stalls injection until
//     a window slot frees; Shed drops whole windows (never individual
//     events — event-granular holes would leave a window's closure
//     unable to complete, pinning its slot forever).
//   - Options.Delay is the fault-injection hook: a caller-supplied
//     per-stage stall (chaos.Plan.StageDelay makes one from a plan), so
//     tail latency can be measured under injected stalls.
//
// The run loop itself lives in internal/rts (RunStream), which imports
// this package; keeping the types here avoids an import cycle and lets
// workloads describe pipelines without depending on the runtime.
package stream
