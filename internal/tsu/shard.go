package tsu

import (
	"fmt"
	"sync/atomic"

	"tflux/internal/core"
)

// ShardedState partitions a State's mutable readiness bookkeeping across
// shards so it can be driven by many kernels in parallel instead of one
// dedicated emulator. Ownership follows the TKT: shard sh owns the
// Synchronization Memories of a contiguous kernel range, and exactly one
// kernel of that range (the stepper) may touch them. A completing kernel
// applies the decrements that land in its own shard directly — lock-free,
// since it is the only writer — and batches the rest into the owning
// shards' inboxes (per-shard TUBs, one MPSC mailbox each), which the owners
// drain at their step boundaries.
//
// Correctness rests on two invariants:
//
//   - Visibility: every cross-goroutine hand-off (ready-queue push/pop,
//     inbox push/drain) passes through a mutex, so a shard's count writes
//     are ordered before any other shard can observe their consequences.
//     A shard's counts are written only by its stepper between those
//     hand-offs.
//
//   - Outlet safety: when the atomic remaining count reaches zero, no
//     cross-shard decrement can still be in flight. Every decrement
//     targets a consumer of the current Block; that consumer must fire,
//     execute and have its own completion counted before remaining can
//     reach zero, and Complete ships its cross-shard batches before
//     counting the producer's completion. The kernel that processes the
//     Inlet or Outlet may therefore mutate the global block state (load
//     and clear the SMs) without coordinating with the other shards.
//
// A ShardedState is created on a fresh State, before the first Inlet runs.
// The single-driver State API (Decrement, DoneInto, CompleteInto) must
// not be mixed with a sharded run.
type ShardedState struct {
	s       *State
	nShards int

	// shardOfKernel[k] is the shard owning kernel k's SM; steppers[sh] is
	// the one kernel allowed to mutate shard sh's counts.
	shardOfKernel []int
	steppers      []KernelID

	// inboxes[sh] carries the cross-shard decrement batches addressed to
	// shard sh. Every stepper is both a producer into its peers' inboxes
	// and the drainer of its own; no two can deadlock, because a TUB Push
	// never waits for space.
	inboxes []*TUB

	lanes []Lane

	// remaining is the sharded twin of State.remaining: application
	// completions are counted here atomically because they land on every
	// kernel concurrently. Block transitions copy it back into the State
	// so the sequencing guards keep working.
	remaining atomic.Int64

	// notify, when non-nil, is invoked after a batch lands in shard sh's
	// inbox so the runtime can wake that shard's stepper.
	notify func(sh int)
}

// Lane is one kernel's handle onto the sharded state. All methods on a
// Lane must be called from the single goroutine driving that kernel; the
// scratch buffers and counters inside are unsynchronized by design.
type Lane struct {
	ss *ShardedState
	k  KernelID
	sh int // shard this kernel steps, or -1 if it is not a stepper

	route [][]core.Instance // per-shard outgoing cross-shard targets

	// Lane-local statistics, folded into Stats()/SearchSteps() once the
	// run is over. stats counts the decrements this lane applied and the
	// instances they fired (PerKernel indexed by owning kernel).
	stats       Stats
	crossShard  int64 // decrements shipped to other shards' inboxes
	searchSteps int64
}

// NewSharded wraps a freshly built State in the sharded engine. shards must
// be in [1, kernels]; kernels are assigned to shards in contiguous chunks.
// Each shard's inbox is a TUB with one segment per kernel, so
// concurrent producers spread across try-locks. notify, when non-nil, is
// called — possibly from any kernel — after a cross-shard batch is
// deposited for the given shard.
func NewSharded(s *State, shards int, notify func(sh int)) (*ShardedState, error) {
	if shards < 1 || shards > s.kernels {
		return nil, fmt.Errorf("tsu: %d shards for %d kernels; need 1 ≤ shards ≤ kernels", shards, s.kernels)
	}
	if s.curBlock != -1 || s.loaded {
		return nil, fmt.Errorf("tsu: NewSharded on a State that already started (block %d)", s.curBlock)
	}
	ss := &ShardedState{
		s:             s,
		nShards:       shards,
		shardOfKernel: make([]int, s.kernels),
		steppers:      make([]KernelID, shards),
		inboxes:       make([]*TUB, shards),
		lanes:         make([]Lane, s.kernels),
		notify:        notify,
	}
	for k := 0; k < s.kernels; k++ {
		ss.shardOfKernel[k] = k * shards / s.kernels
	}
	for sh := 0; sh < shards; sh++ {
		// First kernel of the shard's contiguous range.
		ss.steppers[sh] = KernelID((sh*s.kernels + shards - 1) / shards)
		ss.inboxes[sh] = NewTUB(s.kernels, TUBConfig{Segments: s.kernels})
	}
	for k := range ss.lanes {
		ln := &ss.lanes[k]
		ln.ss = ss
		ln.k = KernelID(k)
		ln.sh = -1
		if sh := ss.shardOfKernel[k]; ss.steppers[sh] == KernelID(k) {
			ln.sh = sh
		}
		ln.route = make([][]core.Instance, shards)
		ln.stats.PerKernel = make([]int64, s.kernels)
	}
	return ss, nil
}

// Shards returns the shard count.
func (ss *ShardedState) Shards() int { return ss.nShards }

// Stepper returns the kernel that steps shard sh.
func (ss *ShardedState) Stepper(sh int) KernelID { return ss.steppers[sh] }

// ShardOf returns the shard owning kernel k's Synchronization Memory.
func (ss *ShardedState) ShardOf(k KernelID) int { return ss.shardOfKernel[int(k)] }

// Lane returns kernel k's handle. Each lane must be used by exactly one
// goroutine.
func (ss *ShardedState) Lane(k KernelID) *Lane { return &ss.lanes[int(k)] }

// Complete processes the completion of inst executed by this lane's kernel:
// the Post-Processing Phase, sharded. targets is the consumer expansion
// (AppendConsumers). Decrements owned by the lane's own shard are applied
// in place; the rest are batched into the owning shards' inboxes (waking
// them via notify). Newly fired instances — of this shard — are appended to
// dst; fires in other shards surface from their steppers' Step calls. The
// final Outlet's completion returns programDone.
func (ln *Lane) Complete(dst []Ready, inst core.Instance, targets []core.Instance) (ready []Ready, programDone bool) {
	ss := ln.ss
	s := ss.s
	for _, tgt := range targets {
		info := &s.infos[tgt.Thread]
		ko := s.locate(info, tgt.Ctx, &ln.searchSteps)
		so := ss.shardOfKernel[int(ko)]
		if so == ln.sh {
			if s.applyDec(&ln.stats, info, ko, tgt) {
				dst = append(dst, Ready{Inst: tgt, Kernel: ko})
			}
		} else {
			ln.route[so] = append(ln.route[so], tgt)
		}
	}
	// Ship the cross-shard batches before counting this completion: the
	// outlet-safety invariant needs every decrement deposited before the
	// Done that could drain the Block.
	for so := range ln.route {
		if len(ln.route[so]) == 0 {
			continue
		}
		ln.crossShard += int64(len(ln.route[so]))
		ss.inboxes[so].Push(Completion{Inst: inst, Kernel: ln.k, Targets: ln.route[so]})
		ln.route[so] = ln.route[so][:0]
		if ss.notify != nil {
			ss.notify(so)
		}
	}
	return ln.done(dst, inst)
}

// Step drains the lane's shard inbox and applies the pending cross-shard
// decrements, appending instances that fire to dst. Non-stepper lanes
// return dst unchanged. Call it at step boundaries: before blocking for
// work and after executing an instance.
func (ln *Lane) Step(dst []Ready) []Ready {
	if ln.sh < 0 {
		return dst
	}
	s := ln.ss.s
	inbox := ln.ss.inboxes[ln.sh]
	inbox.recs = inbox.Drain(inbox.recs[:0])
	for _, rec := range inbox.recs {
		for _, tgt := range rec.Targets {
			info := &s.infos[tgt.Thread]
			// The producer already charged the location lookup; the
			// owner derivation here is the free TKT form. Only the shard's
			// stepper reaches here, so the count write is unsynchronized
			// by design.
			ko := s.kernelOfInfo(info, tgt.Ctx)
			if s.applyDec(&ln.stats, info, ko, tgt) {
				dst = append(dst, Ready{Inst: tgt, Kernel: ko})
			}
		}
	}
	return dst
}

// done accounts the completion itself: atomically for application
// instances, via the (invariant-protected) global block transition for
// Inlet/Outlet service instances.
func (ln *Lane) done(dst []Ready, inst core.Instance) (ready []Ready, programDone bool) {
	ss := ln.ss
	s := ss.s
	if s.IsService(inst) {
		return ss.serviceDone(dst, inst, ln.k)
	}
	rem := ss.remaining.Add(-1)
	if rem < 0 {
		panic(fmt.Sprintf("tsu: block %d over-completed at %v", s.curBlock, inst))
	}
	if rem == 0 {
		// Block drained: the Outlet becomes runnable on the kernel that
		// finished last, exactly as in the single-driver engine.
		dst = append(dst, Ready{Inst: core.Instance{Thread: s.OutletID(s.curBlock), Ctx: core.Context(ln.k)}, Kernel: ln.k})
	}
	return dst, false
}

// serviceDone runs a block transition on whichever kernel executed the
// service thread. The outlet-safety invariant guarantees no other shard has
// in-flight work, so the State's single-driver transition code is reused
// as-is, with the atomic remaining count synced across the boundary.
func (ss *ShardedState) serviceDone(dst []Ready, inst core.Instance, k KernelID) (ready []Ready, programDone bool) {
	s := ss.s
	off := int(inst.Thread - s.serviceBase)
	blk := off / 2
	if off%2 == 0 {
		dst = s.inletDone(dst, blk)
		ss.remaining.Store(s.remaining)
		return dst, false
	}
	// The Outlet only fired because remaining hit zero; reflect that into
	// the legacy field so outletDone's sequencing guard holds.
	s.remaining = 0
	dst, _, programDone = s.outletDone(dst, blk, k)
	return dst, programDone
}

// Stats aggregates the per-lane counters with the State's transition-side
// totals (Inlets/Outlets and source fires happen on the State).
func (ss *ShardedState) Stats() Stats {
	st := ss.s.Stats()
	for i := range ss.lanes {
		ls := &ss.lanes[i].stats
		st.Decrements += ls.Decrements
		st.Fired += ls.Fired
		for ko, n := range ls.PerKernel {
			st.PerKernel[ko] += n
		}
	}
	return st
}

// SearchSteps returns the total SM probes across all lanes plus the
// transition-side lookups.
func (ss *ShardedState) SearchSteps() int64 {
	n := ss.s.SearchSteps()
	for i := range ss.lanes {
		n += ss.lanes[i].searchSteps
	}
	return n
}

// CrossShardDecrements counts decrements that crossed a shard boundary
// through an inbox.
func (ss *ShardedState) CrossShardDecrements() int64 {
	var n int64
	for i := range ss.lanes {
		n += ss.lanes[i].crossShard
	}
	return n
}

// ShardFired returns per-shard totals of instances fired into each shard's
// ownership — the occupancy/load measure behind the tsu.shard_occupancy
// gauges and the bench imbalance line.
func (ss *ShardedState) ShardFired() []int64 {
	st := ss.Stats()
	out := make([]int64, ss.nShards)
	for k, n := range st.PerKernel {
		out[ss.shardOfKernel[k]] += n
	}
	return out
}

// Release gives the inbox TUBs back (TUB.Release) once the run is over
// and its statistics are read: no Lane or stats method may be called
// afterwards. They go back last first, so that the next NewSharded takes
// each shard's inbox back in its own place, grown to its own traffic.
func (ss *ShardedState) Release() {
	for sh := len(ss.inboxes) - 1; sh >= 0; sh-- {
		ss.inboxes[sh].Release()
	}
}

// InboxStats aggregates the cross-shard inbox TUB counters.
func (ss *ShardedState) InboxStats() TUBStats {
	var st TUBStats
	for _, in := range ss.inboxes {
		s := in.Stats()
		st.Pushes += s.Pushes
		st.TryMisses += s.TryMisses
	}
	return st
}
