package tsu

import (
	"runtime"
	"sync"
	"testing"

	"tflux/internal/core"
)

// hammerTUB pushes records from writers concurrently while one reader
// drains, and checks nothing is lost or duplicated.
func hammerTUB(t *testing.T, cfg TUBConfig, writers, perWriter int) TUBStats {
	t.Helper()
	tub := NewTUB(writers, cfg)
	stop := make(chan struct{})
	got := make(map[core.Instance]int)
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var recs []Completion
		for {
			recs = tub.Drain(recs[:0])
			for _, r := range recs {
				got[r.Inst]++
			}
			if len(recs) == 0 {
				if !tub.Wait(stop) {
					// Final sweep: writers are done once stop closes.
					recs = tub.Drain(recs[:0])
					for _, r := range recs {
						got[r.Inst]++
					}
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				inst := core.Instance{Thread: core.ThreadID(w + 1), Ctx: core.Context(i)}
				tub.Push(Completion{Inst: inst, Kernel: KernelID(w)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if len(got) != writers*perWriter {
		t.Fatalf("received %d distinct records, want %d", len(got), writers*perWriter)
	}
	for inst, n := range got {
		if n != 1 {
			t.Fatalf("record %v received %d times", inst, n)
		}
	}
	return tub.Stats()
}

func TestTUBNoLossUnderContention(t *testing.T) {
	st := hammerTUB(t, TUBConfig{Segments: 4}, 8, 500)
	if st.Pushes != 8*500 {
		t.Fatalf("pushes = %d, want %d", st.Pushes, 8*500)
	}
}

func TestTUBSingleLockMode(t *testing.T) {
	tub := NewTUB(4, TUBConfig{Segments: 1})
	if len(tub.segs) != 1 {
		t.Fatalf("single-lock TUB has %d segments, want 1", len(tub.segs))
	}
	hammerTUB(t, TUBConfig{Segments: 1}, 4, 200)
}

// TestTUBBlockingFallbackTinyCapacity: a writer that finds the only
// segment full blocks, counts once in Blocked, and deposits its record
// once the drainer makes room (a single-segment TUB has no try-lock pass,
// so this is the only place its waits can be counted).
func TestTUBBlockingFallbackTinyCapacity(t *testing.T) {
	tub := NewTUB(1, TUBConfig{Segments: 1})
	for i := 0; i < segmentCap; i++ {
		tub.Push(Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}})
	}
	if st := tub.Stats(); st.Blocked != 0 {
		t.Fatalf("Blocked = %d before the segment was full, want 0", st.Blocked)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tub.Push(Completion{Inst: core.Instance{Thread: 2}})
	}()
	// The drainer is held until the writer has found the segment full.
	for tub.Stats().Blocked == 0 {
		runtime.Gosched()
	}
	var recs []Completion
	for n := 0; n < segmentCap+1; n += len(recs) {
		recs = tub.Drain(recs[:0])
		runtime.Gosched()
	}
	<-done
	if st := tub.Stats(); st.Blocked != 1 || st.Pushes != segmentCap+1 {
		t.Fatalf("Blocked = %d, Pushes = %d, want 1 and %d", st.Blocked, st.Pushes, segmentCap+1)
	}
}

func TestTUBDefaults(t *testing.T) {
	tub := NewTUB(5, TUBConfig{})
	if len(tub.segs) != 10 {
		t.Fatalf("default segments = %d, want 2*kernels = 10", len(tub.segs))
	}
}

func TestTUBTargetsRoundTrip(t *testing.T) {
	// Push copies the targets, so the writer may reuse its slice at once,
	// and Drain hands them back in deposit order, record by record.
	tub := NewTUB(2, TUBConfig{Segments: 2})
	var targets []core.Instance
	for i := 0; i < 6; i++ {
		targets = targets[:0]
		for j := 0; j < i; j++ {
			targets = append(targets, core.Instance{Thread: core.ThreadID(i), Ctx: core.Context(j)})
		}
		tub.Push(Completion{Inst: core.Instance{Ctx: core.Context(i)}, Kernel: KernelID(i % 2), Targets: targets})
		for j := range targets {
			targets[j] = core.Instance{} // the deposit must not see this
		}
	}
	recs := tub.Drain(nil)
	if len(recs) != 6 {
		t.Fatalf("drained %d records, want 6", len(recs))
	}
	for _, r := range recs {
		i := int(r.Inst.Ctx)
		if len(r.Targets) != i {
			t.Fatalf("record %d carries %d targets, want %d", i, len(r.Targets), i)
		}
		if i == 0 && r.Targets != nil {
			t.Fatal("a record pushed without targets drains with a non-nil slice")
		}
		for j, tgt := range r.Targets {
			if want := (core.Instance{Thread: core.ThreadID(i), Ctx: core.Context(j)}); tgt != want {
				t.Fatalf("record %d target %d = %v, want %v", i, j, tgt, want)
			}
		}
	}
}

// TestTUBPushDrainAllocatesNothing pins the inline target arena: once the
// segments and the drain buffer have grown, a Push-with-targets/Drain
// cycle allocates nothing.
func TestTUBPushDrainAllocatesNothing(t *testing.T) {
	tub := NewTUB(2, TUBConfig{})
	targets := make([]core.Instance, 64)
	var recs []Completion
	cycle := func() {
		for i := 0; i < 64; i++ {
			tub.Push(Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}, Kernel: KernelID(i % 2), Targets: targets[:i%9]})
		}
		recs = tub.Drain(recs[:0])
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Push/Drain cycle allocates %.1f objects, want 0", n)
	}
	if len(recs) != 64 {
		t.Fatalf("drained %d records, want 64", len(recs))
	}
}

func TestTUBDrainEmptiesSegments(t *testing.T) {
	tub := NewTUB(2, TUBConfig{Segments: 2})
	for i := 0; i < 6; i++ {
		tub.Push(Completion{Inst: core.Instance{Ctx: core.Context(i)}, Kernel: KernelID(i % 2)})
	}
	recs := tub.Drain(nil)
	if len(recs) != 6 {
		t.Fatalf("drained %d records, want 6", len(recs))
	}
	if again := tub.Drain(nil); len(again) != 0 {
		t.Fatalf("second drain returned %d records, want 0", len(again))
	}
}

func TestTUBClosedDropNotCountedAsDeposit(t *testing.T) {
	// A record dropped on a closed, full TUB (error-path shutdown) must
	// not inflate the Pushes counter: only accepted deposits count.
	tub := NewTUB(1, TUBConfig{Segments: 1})
	for i := 0; i < segmentCap; i++ {
		tub.Push(Completion{Inst: core.Instance{Thread: 1, Ctx: core.Context(i)}})
	}
	if got := tub.Stats().Pushes; got != segmentCap {
		t.Fatalf("pushes = %d after %d accepted deposits", got, segmentCap)
	}
	tub.Close()
	// Segment is full and the TUB is closed: this push is dropped.
	tub.Push(Completion{Inst: core.Instance{Thread: 2}})
	if got := tub.Stats().Pushes; got != segmentCap {
		t.Fatalf("pushes = %d after dropped deposit, want %d (drops must not count)", got, segmentCap)
	}
}

func TestTUBWaitStops(t *testing.T) {
	tub := NewTUB(1, TUBConfig{})
	stop := make(chan struct{})
	close(stop)
	if tub.Wait(stop) {
		t.Fatal("Wait returned true on closed stop channel")
	}
}
