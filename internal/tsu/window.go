package tsu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tflux/internal/core"
)

// WindowedSM is the Synchronization Memory of the streaming execution mode:
// a ring of recycled SM slots for a program whose context space is unbounded
// along a stream dimension. The per-window Synchronization Graph is a closed
// core.Block that repeats identically for every window of stream contexts;
// instead of loading and clearing the whole TSU per Block (the batch Inlet/
// Outlet protocol), the WindowedSM keeps a fixed budget of slots, each
// holding the Ready Counts of one in-flight window, and recycles a slot the
// moment its window's firing closure completes. Memory therefore stays
// bounded no matter how long the stream runs.
//
// Concurrency model: unlike the batch State (single driver) and the sharded
// engine (per-shard steppers), windowed Ready Counts are plain atomics — any
// kernel may decrement any live count. The coarser streaming grain (whole
// windows in flight, retirement off the hot path) makes the contended-atomic
// cost acceptable, and it keeps the engine independent of the kernel count.
//
// Recycling invariant (the aliasing guarantee): a slot is returned to the
// free list only by Release, and Release may only be called after Done
// reported the window's firing closure complete — every one of its instances
// executed and performed its post-processing. No decrement, encode or seq
// query can therefore observe a recycled slot through a live window's
// instances. Each occupancy carries a generation number; WindowRef
// operations validate it, so a stale handle (used after Release) panics
// instead of silently corrupting a later window. The property suite in
// window_test.go exercises exactly this under the race detector.
type WindowedSM struct {
	// infos is the dense thread table of the one window block — the same
	// table, from the same builder, the batch State reads (block is 0 and
	// the TKT fields stay empty: windowed counts are not kernel-owned).
	infos []tmplInfo

	// indeg[di] holds the initial Ready Counts of dense template di,
	// identical every window.
	indeg [][]int32

	// perWindow is the number of DThread instances one window expands to —
	// the amount of work Done counts down per slot.
	perWindow int64

	mu     sync.Mutex
	free   []int32 // free slot indices (LIFO: recently retired = cache-warm)
	onFree func()  // invoked after Release returns a slot (may be nil)

	slots []wslot

	// Counters; atomics because every kernel updates them concurrently.
	opened     atomic.Int64
	retired    atomic.Int64
	decrements atomic.Int64
	fired      atomic.Int64
}

// wslot is one SM slot: the Ready Counts of one in-flight window. counts
// and remaining are reset by Open before any instance of the window can be
// dispatched, so the recycled storage never carries state across windows.
type wslot struct {
	window    int64  // stream window id currently occupying the slot
	gen       uint64 // bumped on Release; WindowRef validity check
	live      bool
	counts    [][]atomic.Int32 // indexed by dense template, then local ctx
	remaining atomic.Int64
}

// WindowRef is a handle on one open window occupancy: the slot plus the
// generation it was opened under. All encode/seq operations take the ref so
// use-after-release is detectable.
type WindowRef struct {
	Slot   int
	Window int64
	gen    uint64
}

// WindowStats is a snapshot of the windowed engine's counters.
type WindowStats struct {
	Opened     int64 // windows opened
	Retired    int64 // windows whose firing closure completed
	Decrements int64 // Ready Count decrements applied
	Fired      int64 // instances whose Ready Count reached zero
}

// ValidateWindowShape checks whether a per-window Block fits the windowed
// engine with the given slot budget: non-empty block, at least one slot,
// dense-ish template IDs (same guard as the batch State), non-zero instance
// counts, a slot·local product that fits the context encoding, and arcs
// that stay inside the window block. It is the single source of truth for
// NewWindowed's admission conditions, shared with ddmlint's streaming
// budget check so the verifier rejects exactly the shapes the engine would.
func ValidateWindowShape(b *core.Block, slots int) error {
	if b == nil || len(b.Templates) == 0 {
		return fmt.Errorf("tsu: windowed SM needs a non-empty window block")
	}
	if slots < 1 {
		return fmt.Errorf("tsu: %d window slots, need at least 1", slots)
	}
	if _, err := threadIDSpace([]*core.Block{b}); err != nil {
		return err
	}
	ids := make(map[core.ThreadID]bool, len(b.Templates))
	for _, t := range b.Templates {
		if t.Instances == 0 {
			return fmt.Errorf("tsu: windowed template %d (%q) has zero instances per window", t.ID, t.Name)
		}
		// The slot/local encoding packs both into a core.Context.
		if int64(slots)*int64(t.Instances) > math.MaxUint32 {
			return fmt.Errorf("tsu: %d slots × %d instances of template %d overflow the context encoding", slots, t.Instances, t.ID)
		}
		ids[t.ID] = true
	}
	for _, t := range b.Templates {
		for _, a := range t.Arcs {
			if !ids[a.To] {
				return fmt.Errorf("tsu: windowed arc %d → %d leaves the window block", t.ID, a.To)
			}
		}
	}
	return nil
}

// NewWindowed builds the windowed engine for the given per-window Block
// with the given slot budget. Template IDs must be dense-ish (same guard as
// the batch State); every arc is window-local by construction, since
// mappings operate within the Block's closed context space. The admission
// conditions are exactly ValidateWindowShape.
func NewWindowed(b *core.Block, slots int) (*WindowedSM, error) {
	if err := ValidateWindowShape(b, slots); err != nil {
		return nil, err
	}
	infos, err := buildThreadTable([]*core.Block{b})
	if err != nil {
		return nil, err
	}
	w := &WindowedSM{infos: infos, indeg: make([][]int32, len(b.Templates))}
	for di, t := range b.Templates {
		w.indeg[di] = indeg32(core.InDegrees(b, t))
		w.perWindow += int64(t.Instances)
	}
	w.slots = make([]wslot, slots)
	w.free = make([]int32, 0, slots)
	for s := slots - 1; s >= 0; s-- {
		sl := &w.slots[s]
		sl.window = -1
		sl.counts = make([][]atomic.Int32, len(b.Templates))
		for di, t := range b.Templates {
			sl.counts[di] = make([]atomic.Int32, t.Instances)
		}
		w.free = append(w.free, int32(s))
	}
	return w, nil
}

// indeg32 narrows core.InDegrees to the int32 cells the slots store.
func indeg32(deg []uint32) []int32 {
	out := make([]int32, len(deg))
	for i, d := range deg {
		out[i] = int32(d)
	}
	return out
}

// SetOnFree registers a callback invoked (under no lock) after Release
// returns a slot to the free list — the backpressure wakeup hook. Set it
// before the first Open.
func (w *WindowedSM) SetOnFree(fn func()) { w.onFree = fn }

// Slots returns the slot budget (the in-flight window cap).
func (w *WindowedSM) Slots() int { return len(w.slots) }

// PerWindow returns the number of DThread instances one window expands to.
func (w *WindowedSM) PerWindow() int64 { return w.perWindow }

// InFlight returns the number of currently open windows.
func (w *WindowedSM) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.slots) - len(w.free)
}

// Open claims a free slot for the given stream window and initializes its
// Ready Counts from the block's in-degrees. ok is false when the whole slot
// budget is in flight — the backpressure condition; the caller blocks or
// sheds per its policy and retries after an onFree wakeup.
func (w *WindowedSM) Open(window int64) (WindowRef, bool) {
	w.mu.Lock()
	if len(w.free) == 0 {
		w.mu.Unlock()
		return WindowRef{}, false
	}
	s := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	sl := &w.slots[s]
	sl.window = window
	sl.live = true
	gen := sl.gen
	w.mu.Unlock()

	// Reset outside the lock: the slot is ours alone until the caller
	// dispatches the window's first instance, and the dispatch hand-off
	// (queue mutex) orders these stores before any kernel's loads.
	for di := range sl.counts {
		for c := range sl.counts[di] {
			sl.counts[di][c].Store(w.indeg[di][c])
		}
	}
	sl.remaining.Store(w.perWindow)
	w.opened.Add(1)
	return WindowRef{Slot: int(s), Window: window, gen: gen}, true
}

// Encode packs (template, window slot, local context) into a dispatchable
// Instance: Ctx = slot·instances + local. It panics on a stale ref (slot
// recycled since Open) — the aliasing guard — and on a local context outside
// the template's per-window range.
func (w *WindowedSM) Encode(id core.ThreadID, ref WindowRef, local core.Context) core.Instance {
	info := w.info(id)
	if local >= info.inst {
		panic(fmt.Sprintf("tsu: windowed encode of T%d local %d outside %d instances", id, local, info.inst))
	}
	sl := &w.slots[ref.Slot]
	if !sl.live || sl.gen != ref.gen || sl.window != ref.Window {
		panic(fmt.Sprintf("tsu: stale window ref (slot %d, window %d): slot was recycled", ref.Slot, ref.Window))
	}
	return core.Instance{Thread: id, Ctx: core.Context(ref.Slot)*info.inst + local}
}

// Decode splits an encoded instance back into its slot and local context.
func (w *WindowedSM) Decode(inst core.Instance) (slot int, local core.Context) {
	info := w.info(inst.Thread)
	return int(inst.Ctx / info.inst), inst.Ctx % info.inst
}

// Window returns the stream window id occupying a slot. Valid only while
// the caller holds a live instance of that window (the recycling invariant
// makes this race-free: the slot cannot be released concurrently).
func (w *WindowedSM) Window(slot int) int64 { return w.slots[slot].window }

// Instances returns the per-window instance count of a template.
func (w *WindowedSM) Instances(id core.ThreadID) core.Context { return w.info(id).inst }

func (w *WindowedSM) info(id core.ThreadID) *tmplInfo {
	if int(id) >= len(w.infos) || w.infos[id].t == nil {
		panic(fmt.Sprintf("tsu: windowed SM has no template %d", id))
	}
	return &w.infos[id]
}

// AppendConsumers appends the window-local consumer instances enabled by
// the completion of inst, encoded in the same slot. Reads only immutable
// tables; safe from any kernel, each with its own context scratch ctx (see
// State.AppendConsumers).
func (w *WindowedSM) AppendConsumers(dst []core.Instance, ctx *[]core.Context, inst core.Instance) []core.Instance {
	info := &w.infos[inst.Thread]
	return info.appendConsumers(dst, ctx, inst.Ctx%info.inst, inst.Ctx/info.inst)
}

// Decrement atomically decreases the Ready Count of an encoded target and
// reports whether it fired. Callable from any kernel concurrently. A count
// going negative means the window graph was corrupted (or a slot aliased)
// and panics.
func (w *WindowedSM) Decrement(target core.Instance) bool {
	info := &w.infos[target.Thread]
	slot, local := int(target.Ctx/info.inst), target.Ctx%info.inst
	n := w.slots[slot].counts[info.dense][local].Add(-1)
	w.decrements.Add(1)
	if n < 0 {
		panic(fmt.Sprintf("tsu: windowed ready count of T%d.%d (slot %d) went negative", target.Thread, local, slot))
	}
	if n == 0 {
		w.fired.Add(1)
		return true
	}
	return false
}

// Done counts one instance completion against its window's firing closure
// and reports whether the closure completed — the retirement condition. The
// kernel that receives true owns retirement: apply the window's exports,
// then Release the slot.
func (w *WindowedSM) Done(slot int) (retired bool) {
	rem := w.slots[slot].remaining.Add(-1)
	if rem < 0 {
		panic(fmt.Sprintf("tsu: window slot %d over-completed", slot))
	}
	return rem == 0
}

// Release recycles a retired slot: bumps its generation (invalidating every
// outstanding WindowRef) and returns it to the free list, waking the onFree
// callback. Calling Release before Done reported closure completion
// violates the recycling invariant; the remaining-count guard in Done and
// the generation check in Encode make the violation loud.
func (w *WindowedSM) Release(ref WindowRef) {
	w.mu.Lock()
	sl := &w.slots[ref.Slot]
	if !sl.live || sl.gen != ref.gen {
		w.mu.Unlock()
		panic(fmt.Sprintf("tsu: double release of window slot %d", ref.Slot))
	}
	if rem := sl.remaining.Load(); rem != 0 {
		w.mu.Unlock()
		panic(fmt.Sprintf("tsu: release of window slot %d with %d instances outstanding", ref.Slot, rem))
	}
	sl.live = false
	sl.window = -1
	sl.gen++
	w.free = append(w.free, int32(ref.Slot))
	w.mu.Unlock()
	w.retired.Add(1)
	if w.onFree != nil {
		w.onFree()
	}
}

// Stats returns a snapshot of the engine's counters.
func (w *WindowedSM) Stats() WindowStats {
	return WindowStats{
		Opened:     w.opened.Load(),
		Retired:    w.retired.Load(),
		Decrements: w.decrements.Load(),
		Fired:      w.fired.Load(),
	}
}
