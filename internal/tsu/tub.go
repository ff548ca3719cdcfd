package tsu

import (
	"slices"
	"sync"
	"sync/atomic"

	"tflux/internal/core"
	"tflux/internal/obs"
)

// Completion is one record a Kernel deposits into the TUB after a DThread
// finishes: the completed instance plus the consumer instances whose Ready
// Counts must be decremented (the kernel-side arc expansion). The record is
// atomic — the emulator applies all decrements before accounting the
// completion — so partially applied post-processing can never leak across
// Block boundaries. Push copies Targets; a drained record's Targets alias
// the TUB's drain buffer (see Drain).
type Completion struct {
	Inst    core.Instance
	Kernel  KernelID
	Targets []core.Instance
}

// segmentCap is a segment's starting record capacity; a segment grows past
// it when a Block completes more instances than a drain cycle takes.
const segmentCap = 64

// TUBConfig configures the Thread-to-Update Buffer.
type TUBConfig struct {
	// Segments is the number of independently locked segments. The paper
	// partitions the TUB so each kernel holds at most one segment lock at
	// a time, acquired with try-lock. Zero selects 2×kernels; 1 is the
	// single-lock ablation showing why the paper partitions the TUB.
	Segments int
}

// TUBStats counts TUB traffic and contention.
type TUBStats struct {
	Pushes    int64 // completion records deposited
	TryMisses int64 // segments skipped because locked
}

// tubRec is a deposited record as a segment holds it: its n targets sit,
// in deposit order, in the segment's arena.
type tubRec struct {
	inst   core.Instance
	kernel KernelID
	n      int
}

type tubSegment struct {
	mu    sync.Mutex
	buf   []tubRec
	arena []core.Instance // the targets of buf's records, back to back
}

// TUB is the Thread-to-Update Buffer shared between the Kernels (writers)
// and the TSU Emulator (single reader), or a shard's cross-shard inbox
// (Lane.Step drains it). See §4.2 of the paper. A Push never waits for
// space: the Block bounds what a TUB holds. A kernel pushes one record per
// completed instance and a Block's Outlet fires only after every completion
// is drained, so a TUB never holds more than one record per instance of
// the current Block plus its Inlet and Outlet. No writer is ever parked,
// so an aborted run has nothing to release.
type TUB struct {
	segs   []tubSegment
	notify chan struct{}

	pushes    atomic.Int64
	tryMisses atomic.Int64

	// sink, when non-nil, receives one TUBDeposit event per Push. Set it
	// before the run starts; Push reads it without synchronization.
	sink obs.Sink

	// drained holds the targets of the records the last Drain returned,
	// and recs, for an inbox, the records themselves (Lane.Step). Only
	// the single drainer touches them.
	drained []core.Instance
	recs    []Completion
}

// SetObs attaches an observability sink recording TUBDeposit events.
// Call before any kernel starts pushing.
func (t *TUB) SetObs(s obs.Sink) { t.sink = s }

// tubs holds Released TUBs, so the buffer of a run starts with the
// segment arenas and drain buffer an earlier run grew, whatever its shape.
var tubs FreeList[TUB]

// NewTUB builds a TUB for the given number of kernels on a Released one
// when there is one, keeping only its grown arrays.
func NewTUB(kernels int, cfg TUBConfig) *TUB {
	if cfg.Segments <= 0 {
		cfg.Segments = 2 * kernels
	}
	t := tubs.Get()
	if t == nil {
		t = &TUB{notify: make(chan struct{}, 1)}
	}
	select {
	case <-t.notify: // a wakeup the last run left unconsumed
	default:
	}
	segs := slices.Grow(t.segs[:0], cfg.Segments)[:cfg.Segments]
	for i := range segs {
		segs[i].buf, segs[i].arena = slices.Grow(segs[i].buf[:0], segmentCap), segs[i].arena[:0]
	}
	*t = TUB{segs: segs, notify: t.notify, drained: t.drained[:0], recs: t.recs[:0]}
	return t
}

// Release gives the TUB to the next NewTUB. The segments past this run's,
// an earlier and wider run's, are let go first if keeping them would pass
// the list's bound, as State.Release lets go of SMs. Call it once no
// writer or drainer will touch the TUB again, also after an aborted run:
// neither the TUB nor a record its last Drain returned may be used
// afterwards.
func (t *TUB) Release() {
	used := cap(t.drained) + cap(t.recs) + segElems(t.segs)
	spare := segElems(t.segs[len(t.segs):cap(t.segs)])
	tubs.Put(t, used, spare, (*TUB).dropSpare)
}

// segElems counts the elements of the segments' arrays.
func segElems(segs []tubSegment) int {
	n := 0
	for i := range segs {
		n += cap(segs[i].buf) + cap(segs[i].arena)
	}
	return n
}

// dropSpare lets go of the segments past the last run's.
func (t *TUB) dropSpare() { clear(t.segs[len(t.segs):cap(t.segs)]) }

// Push deposits a completion record, copying its targets into the
// segment's arena, so the caller may reuse rec.Targets at once. It never
// waits for space: a segment grows past segmentCap instead.
func (t *TUB) Push(rec Completion) {
	seg := t.lock(int(rec.Kernel))
	seg.put(rec)
	seg.mu.Unlock()
	t.pushes.Add(1)
	if t.sink != nil {
		t.sink.Record(obs.Event{
			Kind:  obs.TUBDeposit,
			Lane:  int(rec.Kernel),
			Inst:  rec.Inst,
			Start: t.sink.Now(),
		})
	}
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// lock returns a locked segment for kernel k. Per the paper's design, the
// writer walks the segments starting from its home segment and takes the
// first one whose try-lock succeeds, so at most one segment is ever held
// by a kernel. Only if every try fails (and always with one segment) does
// it wait for its home segment's lock.
func (t *TUB) lock(k int) *tubSegment {
	n := len(t.segs)
	for i := 0; n > 1 && i < n; i++ {
		seg := &t.segs[(k+i)%n]
		if seg.mu.TryLock() {
			return seg
		}
		t.tryMisses.Add(1)
	}
	seg := &t.segs[k%n]
	seg.mu.Lock()
	return seg
}

// put appends rec and its targets. Caller holds s.mu.
func (s *tubSegment) put(rec Completion) {
	s.buf = append(s.buf, tubRec{inst: rec.Inst, kernel: rec.Kernel, n: len(rec.Targets)})
	s.arena = append(s.arena, rec.Targets...)
}

// Drain moves every pending record from all segments into dst and returns
// it. The records' Targets alias one buffer the TUB keeps for its drainer:
// they stay valid until the next Drain, which reuses it. Only the TSU
// emulator (or, for an inbox, the owning shard's stepper) calls Drain.
func (t *TUB) Drain(dst []Completion) []Completion {
	t.drained = t.drained[:0]
	for i := range t.segs {
		seg := &t.segs[i]
		seg.mu.Lock()
		if len(seg.buf) > 0 {
			// A record's Targets may point into an array this append
			// outgrows; it still holds the copied targets, and only the
			// newest array is written again.
			off := len(t.drained)
			t.drained = append(t.drained, seg.arena...)
			for _, r := range seg.buf {
				c := Completion{Inst: r.inst, Kernel: r.kernel}
				if r.n > 0 {
					c.Targets = t.drained[off : off+r.n : off+r.n]
					off += r.n
				}
				dst = append(dst, c)
			}
			seg.buf = seg.buf[:0]
			seg.arena = seg.arena[:0]
		}
		seg.mu.Unlock()
	}
	return dst
}

// Wait blocks until a Push has occurred since the last Drain, or stop is
// closed. It returns false when stopped.
func (t *TUB) Wait(stop <-chan struct{}) bool {
	select {
	case <-t.notify:
		return true
	case <-stop:
		return false
	}
}

// Stats returns a copy of the contention counters.
func (t *TUB) Stats() TUBStats {
	return TUBStats{
		Pushes:    t.pushes.Load(),
		TryMisses: t.tryMisses.Load(),
	}
}
