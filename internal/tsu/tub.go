package tsu

import (
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

// TUBConfig configures the Thread-to-Update Buffer.
type TUBConfig struct {
	// Segments is the number of independently locked segments. The paper
	// partitions the TUB so each kernel holds at most one segment lock at
	// a time, acquired with try-lock. Zero selects 2×kernels.
	Segments int
	// SegmentCap is the per-segment record capacity. Zero selects 64.
	SegmentCap int
	// SingleLock disables segmentation (one global lock) — the ablation
	// configuration showing why the paper partitions the TUB.
	SingleLock bool
	// Unbounded lets a Push grow a segment past SegmentCap instead of
	// blocking for space. The sharded TSU uses this for its cross-shard
	// inboxes: every shard is both a producer into its peers' inboxes and
	// the drainer of its own, so a blocking Push could deadlock two shards
	// against each other's full inboxes. Capacity stays bounded in
	// practice by the Block's arc count. SegmentCap still sizes the
	// initial allocation.
	Unbounded bool
}

func (c TUBConfig) withDefaults(kernels int) TUBConfig {
	if c.Segments <= 0 {
		c.Segments = 2 * kernels
	}
	if c.SegmentCap <= 0 {
		c.SegmentCap = 64
	}
	if c.SingleLock {
		c.Segments = 1
	}
	return c
}

// TUBStats counts TUB traffic and contention.
type TUBStats struct {
	Pushes    int64 // completion records deposited
	TryMisses int64 // segments skipped because locked or full
	Blocked   int64 // times a writer had to block for space
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
	cond  *sync.Cond
	buf   []tubRec
	arena []core.Instance // the targets of buf's records, back to back
	cap   int
}

// TUB is the Thread-to-Update Buffer shared between the Kernels (writers)
// and the TSU Emulator (single reader). See §4.2 of the paper.
type TUB struct {
	segs      []tubSegment
	notify    chan struct{}
	closed    atomic.Bool
	unbounded bool

	pushes    atomic.Int64
	tryMisses atomic.Int64
	blocked   atomic.Int64

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

// tubPool holds Released TUBs, so the buffer of a run starts with the
// segment arenas an earlier run grew. It is process-wide and takes TUBs
// of any shape.
var tubPool sync.Pool

// NewTUB builds a TUB for the given number of kernels, reusing a Released
// one when the pool has one.
func NewTUB(kernels int, cfg TUBConfig) *TUB {
	cfg = cfg.withDefaults(kernels)
	t, _ := tubPool.Get().(*TUB)
	if t == nil {
		t = &TUB{notify: make(chan struct{}, 1)}
	}
	if cap(t.segs) < cfg.Segments {
		t.segs = make([]tubSegment, cfg.Segments)
		for i := range t.segs {
			t.segs[i].cond = sync.NewCond(&t.segs[i].mu)
		}
	}
	t.segs = t.segs[:cfg.Segments]
	for i := range t.segs {
		seg := &t.segs[i]
		seg.buf, seg.arena, seg.cap = seg.buf[:0], seg.arena[:0], cfg.SegmentCap
		if cap(seg.buf) < cfg.SegmentCap {
			seg.buf = make([]tubRec, 0, cfg.SegmentCap)
		}
	}
	select {
	case <-t.notify: // a wakeup the last run left unconsumed
	default:
	}
	t.closed.Store(false)
	t.unbounded = cfg.Unbounded
	t.pushes.Store(0)
	t.tryMisses.Store(0)
	t.blocked.Store(0)
	t.sink = nil
	t.drained, t.recs = t.drained[:0], t.recs[:0]
	return t
}

// Release returns the TUB to the pool NewTUB draws from. Call it once no
// writer or drainer will touch the TUB again: neither the TUB nor a record
// its last Drain returned may be used afterwards.
func (t *TUB) Release() { tubPool.Put(t) }

// deposited accounts one successfully enqueued record: the Pushes counter
// and the TUBDeposit obs event count accepted deposits only, so records
// dropped on a closed TUB (error-path shutdown) never skew the totals.
func (t *TUB) deposited(rec Completion) {
	t.pushes.Add(1)
	if t.sink != nil {
		t.sink.Record(obs.Event{
			Kind:  obs.TUBDeposit,
			Lane:  int(rec.Kernel),
			Inst:  rec.Inst,
			Start: t.sink.Now(),
		})
	}
}

// Push deposits a completion record, copying its targets into the
// segment's arena, so the caller may reuse rec.Targets at once. Per the
// paper's design, the writer walks the segments starting from its kernel's
// home segment and takes the first one whose try-lock succeeds and that
// has space, so at most one segment is ever held by a kernel. If a full
// pass fails (all segments locked or full), the writer blocks on its home
// segment until the emulator drains it — the slow path segmentation exists
// to avoid, and the one Blocked counts.
func (t *TUB) Push(rec Completion) {
	n := len(t.segs)
	home := int(rec.Kernel) % n
	if n > 1 {
		for i := 0; i < n; i++ {
			seg := &t.segs[(home+i)%n]
			if !seg.mu.TryLock() {
				t.tryMisses.Add(1)
				continue
			}
			if len(seg.buf) >= seg.cap && !t.unbounded {
				seg.mu.Unlock()
				t.tryMisses.Add(1)
				continue
			}
			seg.put(rec)
			seg.mu.Unlock()
			t.deposited(rec)
			t.signal()
			return
		}
	}
	// Fallback on the home segment (and the only path in single-lock
	// mode): blocking for space, or growing past cap in unbounded mode.
	seg := &t.segs[home]
	seg.mu.Lock()
	waited := false
	for len(seg.buf) >= seg.cap && !t.unbounded {
		if t.closed.Load() {
			// Aborted run: nobody will drain; drop the record rather
			// than deadlock the kernel.
			seg.mu.Unlock()
			return
		}
		if !waited {
			t.blocked.Add(1)
			waited = true
		}
		// Wake the emulator so it can drain; then wait for space.
		t.signal()
		seg.cond.Wait()
	}
	seg.put(rec)
	seg.mu.Unlock()
	t.deposited(rec)
	t.signal()
}

// put appends rec and its targets. Caller holds s.mu.
func (s *tubSegment) put(rec Completion) {
	s.buf = append(s.buf, tubRec{inst: rec.Inst, kernel: rec.Kernel, n: len(rec.Targets)})
	s.arena = append(s.arena, rec.Targets...)
}

// Close marks the TUB as abandoned (error-path shutdown): writers blocked
// for space are released and subsequent overflowing pushes are dropped.
// The normal termination path never needs Close, because the program's
// final completion is always drained before the kernels exit.
func (t *TUB) Close() {
	t.closed.Store(true)
	for i := range t.segs {
		seg := &t.segs[i]
		seg.mu.Lock()
		seg.cond.Broadcast()
		seg.mu.Unlock()
	}
}

func (t *TUB) signal() {
	select {
	case t.notify <- struct{}{}:
	default:
	}
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
			seg.cond.Broadcast()
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

// Stats returns a snapshot of the contention counters.
func (t *TUB) Stats() TUBStats {
	return TUBStats{
		Pushes:    t.pushes.Load(),
		TryMisses: t.tryMisses.Load(),
		Blocked:   t.blocked.Load(),
	}
}

// Segments returns the number of segments (for tests and stats).
func (t *TUB) Segments() int { return len(t.segs) }
