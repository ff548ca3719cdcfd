package tsu

import (
	"sync"
	"testing"
	"time"

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

// fillTUB has writers each push perWriter records (Thread = writer, Ctx =
// push index) into a TUB nothing drains, and fails the test unless every
// writer returns within the deadline.
func fillTUB(t *testing.T, tub *TUB, writers, perWriter int) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				inst := core.Instance{Thread: core.ThreadID(w), Ctx: core.Context(i)}
				tub.Push(Completion{Inst: inst, Kernel: KernelID(w)})
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a writer is still waiting in Push while nothing drains")
	}
	if st := tub.Stats(); st.Pushes != int64(writers*perWriter) {
		t.Fatalf("Pushes = %d, want %d", st.Pushes, writers*perWriter)
	}
}

// TestTUBPushNeverWaits: writers pushing far past every segment's starting
// capacity while nothing drains all return, and one Drain then hands back
// every record once. With one segment each writer's records also come
// back in push order; with two, a try-miss may put a record in the other
// segment, so only exactly-once delivery holds.
func TestTUBPushNeverWaits(t *testing.T) {
	const writers, perWriter = 4, 4 * segmentCap
	for _, segs := range []int{1, 2} {
		tub := NewTUB(writers, TUBConfig{Segments: segs})
		fillTUB(t, tub, writers, perWriter)
		recs := tub.Drain(nil)
		if len(recs) != writers*perWriter {
			t.Fatalf("%d segments: drained %d records, want %d", segs, len(recs), writers*perWriter)
		}
		next := make([]core.Context, writers)
		seen := make(map[core.Instance]bool, len(recs))
		for _, r := range recs {
			w := int(r.Inst.Thread)
			if r.Kernel != KernelID(w) || seen[r.Inst] {
				t.Fatalf("%d segments: drained %v from kernel %d twice or from the wrong kernel", segs, r.Inst, r.Kernel)
			}
			seen[r.Inst] = true
			if segs == 1 && r.Inst.Ctx != next[w] {
				t.Fatalf("writer %d: drained context %d, want %d next", w, r.Inst.Ctx, next[w])
			}
			next[w]++
		}
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

func TestTUBWaitStops(t *testing.T) {
	tub := NewTUB(1, TUBConfig{})
	stop := make(chan struct{})
	close(stop)
	if tub.Wait(stop) {
		t.Fatal("Wait returned true on closed stop channel")
	}
}
