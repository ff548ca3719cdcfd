package dist

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tflux/internal/core"
)

// TestFleetReuse pins the satellite contract of the Fleet type: one set
// of worker connections (and their handshakes, heartbeats and replica
// caches) survives across multiple program runs. Two sequential Run
// calls on one fleet must both complete correctly with no worker churn.
func TestFleetReuse(t *testing.T) {
	build := distSum(8, 100)
	f, wait, err := NewLocalFleet(2, 2, func(ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		p, svb := build()
		return p, svb, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for c := 1; c <= 8; c++ {
		want += uint64(c) * 100
	}
	for run := 0; run < 2; run++ {
		prog, svb := build()
		st, err := f.Run(prog, svb)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := binary.LittleEndian.Uint64(svb.Bytes("out")); got != want {
			t.Fatalf("run %d: sum = %d, want %d", run, got, want)
		}
		if st.Failovers != 0 {
			t.Fatalf("run %d: %d failovers on a healthy fleet", run, st.Failovers)
		}
	}
	if f.AliveNodes() != 2 {
		t.Fatalf("alive nodes = %d after two runs, want 2", f.AliveNodes())
	}
	f.Close() //nolint:errcheck
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("node %d: %v", i, werr)
		}
	}
}

// TestFleetConcurrentPrograms drives the multi-program API directly:
// several sessions with different shapes opened on one started fleet,
// all multiplexed over the same worker connections, each completing
// with its own correct result and its own stats.
func TestFleetConcurrentPrograms(t *testing.T) {
	resolve := func(spec ProgramSpec) (*core.Program, *core.SharedVariableBuffer, error) {
		if spec.Name != "distsum" {
			return nil, nil, fmt.Errorf("unknown workload %q", spec.Name)
		}
		p, svb := distSum(core.Context(spec.Param), 50)()
		return p, svb, nil
	}
	f, wait, err := NewLocalFleet(3, 2, resolve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()

	const programs = 5
	type outcome struct {
		st  *Stats
		err error
	}
	results := make([]chan outcome, programs)
	svbs := make([]*core.SharedVariableBuffer, programs)
	var mu sync.Mutex // OnDone runs on the fleet loop; Open below races it
	for i := 0; i < programs; i++ {
		results[i] = make(chan outcome, 1)
	}
	for i := 0; i < programs; i++ {
		workers := core.Context(4 + i)
		prog, svb := distSum(workers, 50)()
		mu.Lock()
		svbs[i] = svb
		mu.Unlock()
		ch := results[i]
		err := f.Open(uint32(i+1), OpenReq{
			Prog:   prog,
			SVB:    svb,
			Spec:   ProgramSpec{Name: "distsum", Param: int(workers)},
			Weight: 1 + i%2,
			OnDone: func(st *Stats, err error) { ch <- outcome{st, err} },
		})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	for i := 0; i < programs; i++ {
		out := <-results[i]
		if out.err != nil {
			t.Fatalf("program %d: %v", i, out.err)
		}
		workers := 4 + i
		var want uint64
		for c := 1; c <= workers; c++ {
			want += uint64(c) * 50
		}
		mu.Lock()
		got := binary.LittleEndian.Uint64(svbs[i].Bytes("out"))
		mu.Unlock()
		if got != want {
			t.Fatalf("program %d: sum = %d, want %d", i, got, want)
		}
		if out.st.TSU.Inlets != 1 || out.st.TSU.Outlets != 1 {
			t.Fatalf("program %d: inlets/outlets = %d/%d", i, out.st.TSU.Inlets, out.st.TSU.Outlets)
		}
	}

	// A session whose spec the workers cannot resolve must fail cleanly
	// without disturbing the fleet.
	prog, svb := distSum(4, 10)()
	ch := make(chan outcome, 1)
	if err := f.Open(99, OpenReq{
		Prog:   prog,
		SVB:    svb,
		Spec:   ProgramSpec{Name: "nope", Param: 4},
		OnDone: func(st *Stats, err error) { ch <- outcome{st, err} },
	}); err != nil {
		t.Fatal(err)
	}
	out := <-ch
	if out.err == nil || !strings.Contains(out.err.Error(), "unknown workload") {
		t.Fatalf("unresolvable spec: want worker rejection, got %v", out.err)
	}
	if f.AliveNodes() != 3 {
		t.Fatalf("alive nodes = %d, want 3", f.AliveNodes())
	}

	f.Close() //nolint:errcheck
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("node %d: %v", i, werr)
		}
	}
}
