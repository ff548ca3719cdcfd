package cellsim

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"tflux/internal/core"
	"tflux/internal/workload"
)

// benchProgram builds one of the repo benchmark's platform-sweep programs
// with its job, on two kernels.
func benchProgram(t testing.TB, job workload.Job, unroll int) *core.Program {
	t.Helper()
	job.RunSequential()
	p, err := job.Build(2, unroll)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cellRecord is what a run must reproduce whatever Local Stores it was
// given: its output bytes and its DMA traffic.
type cellRecord struct {
	out                                  uint64 // FNV-1a over the program's buffers
	bytesIn, bytesOut, transfers, lsHigh int64
}

func recordCell(t *testing.T, job workload.Job, p *core.Program) cellRecord {
	t.Helper()
	job.ResetOutput()
	svb := job.SharedBuffers()
	st, err := Run(p, svb, Config{SPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, b := range p.Buffers {
		h.Write(svb.Bytes(b.Name))
	}
	return cellRecord{h.Sum64(), st.DMABytesIn, st.DMABytesOut, st.DMATransfers, st.LSHighWater}
}

const poison = 0xA5

// poisonArenas fills n Local Stores with 0xA5 and hands them to the pool.
func poisonArenas(n int) {
	held := make([]*[localStore]byte, n)
	for i := range held {
		held[i] = arenas.Get().(*[localStore]byte)
		for j := range held[i] {
			held[i][j] = poison
		}
	}
	for _, ls := range held {
		arenas.Put(ls)
	}
}

// poisonedArenaUsed reports whether the pool holds a Local Store that
// was poisoned and then staged into: its bottom holds staged bytes, while
// the byte below the streaming window, which no suite footprint reaches,
// still holds the poison.
func poisonedArenaUsed(n int) bool {
	used := false
	held := make([]*[localStore]byte, n)
	for i := range held {
		ls := arenas.Get().(*[localStore]byte)
		held[i] = ls
		if ls[localStore-2*dmaChunk-1] == poison && !bytes.Equal(ls[:64], bytes.Repeat([]byte{poison}, 64)) {
			used = true
		}
	}
	for _, ls := range held {
		arenas.Put(ls)
	}
	return used
}

// TestRecycledArenasDoNotLeak pins that staging never reads what a
// recycled Local Store held before: runs on arenas filled with 0xA5 write
// the same output bytes and move the same DMA traffic as a run on fresh
// arenas. Under the race detector sync.Pool drops some of what it is
// given, so the test repeats until a poisoned arena was seen in use.
func TestRecycledArenasDoNotLeak(t *testing.T) {
	for _, tc := range []struct {
		name   string
		job    workload.Job
		unroll int
	}{
		{"MMULT-128/8", workload.NewMMult(128), 8},
		{"SUSAN-256x288/32", workload.NewSusan(256, 288), 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := benchProgram(t, tc.job, tc.unroll)
			// sync.Pool forgets what survives two collections: the first
			// run builds its Local Stores anew.
			runtime.GC()
			runtime.GC()
			want := recordCell(t, tc.job, p)
			seen := false
			for round := 0; round < 20 && !seen; round++ {
				poisonArenas(4)
				if got := recordCell(t, tc.job, p); got != want {
					t.Fatalf("round %d on poisoned arenas: %+v, on fresh ones %+v", round, got, want)
				}
				seen = poisonedArenaUsed(4)
			}
			if !seen {
				t.Fatal("no run used a poisoned Local Store")
			}
		})
	}
}

// What one warm cellsim.Run of the repo benchmark's MMULT-128/8 allocates
// on two SPEs: 23 objects and 1.4–1.8 KB, and the same 23 objects and
// 1.38–1.46 KB in each of 10 measurements beside three busy loops. Six
// objects are cellsim's (the run's SPE side and its two slices, its exec
// method value, the Stats and their per-SPE slice); the rest are one
// rts.RunExec's on two kernels (runner, stop channel, Stats and three
// per-kernel slices, the WaitGroup and three goroutines) and its TSU
// State's (thread table, validation, the Stats copy). Before the Cell ran
// on rts it was 45 objects and 2.9 KB, with a PPE and two SPE goroutines,
// their rings and mailboxes; before the Local Stores were recycled and
// the access table read, 160 objects and 537 KB. The collector is held
// off while the runs are measured: a collection empties the Local Store
// pool, and the next run builds a 256 KiB arena again. Under the race
// detector sync.Pool drops a share of what it is given anyway, so most
// runs build a Local Store (41–172 KB per run, 23–24 objects): the byte
// count is not capped there.
const (
	warmCellRunAllocsCeiling     = 28
	warmCellRunBytesCeiling      = 4 << 10
	raceWarmCellRunAllocsCeiling = 32
)

// TestWarmCellRunAllocsCeiling caps what a warm cellsim.Run allocates.
func TestWarmCellRunAllocsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	job := workload.NewMMult(128)
	p := benchProgram(t, job, 8)
	svb := job.SharedBuffers()
	run := func() {
		if _, err := Run(p, svb, Config{SPEs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs, %d bytes per run", allocs, bytes)
	if raceBuild {
		if allocs > raceWarmCellRunAllocsCeiling {
			t.Fatalf("a warm run allocates %.0f times, want <= %d", allocs, raceWarmCellRunAllocsCeiling)
		}
		return
	}
	if allocs > warmCellRunAllocsCeiling || bytes > warmCellRunBytesCeiling {
		t.Fatalf("a warm run allocates %.0f times and %d bytes, want <= %d and <= %d", allocs, bytes, warmCellRunAllocsCeiling, warmCellRunBytesCeiling)
	}
}
