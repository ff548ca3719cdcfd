// Package chaos provides deterministic, seeded fault injection for the
// TFluxDist transport (and any other net.Conn-based protocol in this
// repository).
//
// A Plan is a declarative schedule of faults — fixed or ramping latency,
// bandwidth throttling, one-way read/write stalls and mid-frame
// connection severs — plus a rand.Source seed that drives any randomized
// component (latency jitter). Wrapping a net.Conn with Plan.Wrap yields a
// connection that executes the schedule; Plan.StageDelay interprets the
// same plan against the stages of an in-process stream pipeline.
// ParseSpec reads the textual form the CLIs take (tfluxrun -dist-faults
// and -stream-faults, tfluxd -faults).
//
// Determinism is the point: the same Plan and seed fire the same faults
// at the same frame counts on every run, and every fired fault is
// appended to a Log whose contents are reproducible (events are ordered
// by connection index and per-connection firing order, never by wall
// clock), so a test can assert exactly which faults fired and replay a
// failure byte-for-byte. Log.Report renders it.
//
// A "frame" is one Write (or, for read-side faults, one Read) call on
// the wrapped connection. The TFluxDist binary protocol writes exactly
// one wire frame per Write call, so fault counts align one-to-one with
// protocol frames — "sever node 2's connection after the 2nd frame"
// cuts it right after its second ExecBatch/Shutdown/Ping, and a
// midframe sever delivers the first half of a frame (the tail of an
// ExecBatch simply never arrives). Note that batching coalesces many
// dispatches into few frames: scripting a mid-run fault against a small
// workload usually requires tightening dist.Options.BatchCount/Window
// (or the tfluxrun -dist-batch/-dist-window flags) so the run produces
// more than one data frame per node.
package chaos
