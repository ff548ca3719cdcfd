// Package obs is the unified observability layer shared by every TFlux
// platform (TFluxSoft, TFluxHard, TFluxCell, TFluxDist and the
// virtual-time model): a typed, low-overhead event model behind a Sink
// interface, a metrics registry of atomic counters, gauges and
// log-linear histograms, and exporters for Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) and a human-readable summary
// table.
//
// The design goals mirror what the paper's evaluation (§5–§6) needed to
// see: where cycles go per kernel, what the TSU costs, how contended the
// TUB is, how much data DMA staging and the distributed protocol move.
// All five platforms map their activity onto the same seven event kinds,
// so a soft-runtime wall-clock trace and a hard-simulator cycle trace
// are comparable side by side in one trace viewer.
//
// Overhead discipline: every emission site is gated on a nil check of a
// concrete sink or instrument pointer, so a run with observability
// disabled pays only untaken branches — no clock reads, no allocation,
// no atomic traffic. The in-memory Recorder is lock-sharded by execution
// lane so concurrent kernels rarely contend.
package obs
