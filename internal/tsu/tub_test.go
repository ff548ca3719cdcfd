package tsu

import (
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
	st := hammerTUB(t, TUBConfig{Segments: 4, SegmentCap: 8}, 8, 500)
	if st.Pushes != 8*500 {
		t.Fatalf("pushes = %d, want %d", st.Pushes, 8*500)
	}
}

func TestTUBSingleLockMode(t *testing.T) {
	tub := NewTUB(4, TUBConfig{SingleLock: true, SegmentCap: 4})
	if tub.Segments() != 1 {
		t.Fatalf("single-lock TUB has %d segments, want 1", tub.Segments())
	}
	hammerTUB(t, TUBConfig{SingleLock: true, SegmentCap: 4}, 4, 200)
}

func TestTUBBlockingFallbackTinyCapacity(t *testing.T) {
	// One segment of capacity 1 forces the blocking path constantly; the
	// reader must keep everything flowing, and the writers that waited
	// must show in Blocked (a single-segment TUB has no try-lock pass, so
	// this is the only place its waits can be counted).
	st := hammerTUB(t, TUBConfig{Segments: 1, SegmentCap: 1}, 3, 300)
	if st.Blocked == 0 {
		t.Fatalf("Blocked = 0 after %d pushes into one 1-record segment, want > 0", st.Pushes)
	}
	if st.Blocked > st.Pushes {
		t.Fatalf("Blocked = %d exceeds the %d pushes; a push that waits counts once", st.Blocked, st.Pushes)
	}
}

func TestTUBDefaults(t *testing.T) {
	tub := NewTUB(5, TUBConfig{})
	if tub.Segments() != 10 {
		t.Fatalf("default segments = %d, want 2*kernels = 10", tub.Segments())
	}
}

func TestTUBTargetsRoundTrip(t *testing.T) {
	// Push copies the targets, so the writer may reuse its slice at once,
	// and Drain hands them back in deposit order, record by record.
	tub := NewTUB(2, TUBConfig{Segments: 2, SegmentCap: 4})
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
	tub := NewTUB(2, TUBConfig{Segments: 2, SegmentCap: 4})
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
	tub := NewTUB(1, TUBConfig{Segments: 1, SegmentCap: 1})
	tub.Push(Completion{Inst: core.Instance{Thread: 1}})
	if got := tub.Stats().Pushes; got != 1 {
		t.Fatalf("pushes = %d after one accepted deposit, want 1", got)
	}
	tub.Close()
	// Segment is full and the TUB is closed: this push is dropped.
	tub.Push(Completion{Inst: core.Instance{Thread: 2}})
	if got := tub.Stats().Pushes; got != 1 {
		t.Fatalf("pushes = %d after dropped deposit, want 1 (drops must not count)", got)
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
