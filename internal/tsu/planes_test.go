package tsu_test

import (
	"math/rand"
	"testing"

	"tflux/internal/obs"
	"tflux/internal/rts"
	"tflux/internal/tsu"
)

// planeRun is what one rts.Run of a program leaves behind in its recorder
// and registry.
type planeRun struct {
	dispatch, app, service, commands  int64 // events by kind
	mDispatched, mCommands, mExecuted int64 // registry counters
	queueDepth                        int64
}

func runPlane(t *testing.T, seed int64, opt rts.Options) planeRun {
	t.Helper()
	p, total := tsu.RichRandomProgram(rand.New(rand.NewSource(seed)))
	rec, reg := obs.NewRecorder(), obs.NewRegistry()
	opt.Obs, opt.Metrics = rec, reg
	st, err := rts.Run(p, opt)
	if err != nil {
		t.Fatalf("seed %d %+v: %v", seed, opt, err)
	}
	if st.TotalExecuted() != total {
		t.Fatalf("seed %d: executed %d of %d instances", seed, st.TotalExecuted(), total)
	}
	var r planeRun
	for _, e := range rec.Events() {
		switch {
		case e.Kind == obs.ThreadDispatch:
			r.dispatch++
		case e.Kind == obs.ThreadComplete && e.Service:
			r.service++
		case e.Kind == obs.ThreadComplete:
			r.app++
		case e.Kind == obs.TSUCommand:
			r.commands++
		}
	}
	r.mDispatched = reg.Counter("rts.dispatched").Value()
	r.mCommands = reg.Counter("rts.tsu_commands").Value()
	r.mExecuted = reg.Counter("rts.executed").Value()
	r.queueDepth = reg.Gauge("rts.queue_depth").Value()
	return r
}

// TestPlanesRecordAlike holds the two rts planes to each other on what
// they share — one body runner, one dispatch stage: the rich random
// programs of the sharded-oracle suite must leave the same number of
// dispatch, completion (application and service) and TSU-command events,
// the same counters, and an empty ready-queue gauge, whether one emulator
// goroutine or the kernels themselves drive the TSU.
func TestPlanesRecordAlike(t *testing.T) {
	for seed := int64(0); seed < 90; seed++ {
		r := rand.New(rand.NewSource(seed + 9000))
		kernels := 2 + r.Intn(5)
		shards := 2 + r.Intn(kernels-1)
		single := runPlane(t, seed+4000, rts.Options{Kernels: kernels})
		sharded := runPlane(t, seed+4000, rts.Options{Kernels: kernels, TSUShards: shards})
		if single != sharded {
			t.Fatalf("seed %d (k=%d s=%d): planes diverge\nsingle  %+v\nsharded %+v", seed, kernels, shards, single, sharded)
		}
		if single.queueDepth != 0 {
			t.Fatalf("seed %d: rts.queue_depth = %d after the run, want 0", seed, single.queueDepth)
		}
		// Every instance, service or not, is dispatched once, completes
		// once and costs the TSU one command.
		if n := single.app + single.service; single.dispatch != n || single.commands != n ||
			single.mDispatched != n || single.mCommands != n || single.mExecuted != single.app {
			t.Fatalf("seed %d: inconsistent accounting %+v", seed, single)
		}
	}
}
