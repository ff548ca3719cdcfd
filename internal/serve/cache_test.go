package serve

import (
	"bytes"
	"fmt"
	"testing"

	"tflux/internal/dist"
	"tflux/internal/obs"
	"tflux/internal/workload"
)

// TestProgramCacheKeySoundness pins the correctness-first keying: specs
// differing in any field the resolver or builder reads — Param (which
// sizes the buffers), Kernels, Unroll — must resolve to distinct cache
// entries, and only a byte-identical respray of a seen spec may hit.
func TestProgramCacheKeySoundness(t *testing.T) {
	reg := obs.NewRegistry()
	tw := newTestWorkloads()
	d := startDaemon(t, 2, 2, tw, Options{Metrics: reg}, dist.Options{})
	defer func() {
		for i, err := range d.stop(t) {
			if err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}
	}()
	c := d.dial(t, "keys")
	defer c.Close() //nolint:errcheck

	hits := reg.Counter("serve.program_cache_hits")
	misses := reg.Counter("serve.program_cache_misses")

	run := func(spec dist.ProgramSpec, n int) []byte {
		t.Helper()
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i*7 + n)
		}
		p, err := c.Submit(spec, []dist.RegionData{{Buffer: "in", Offset: 0, Data: in, Size: int64(n)}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != "" {
			t.Fatalf("%+v failed: %s", spec, out.Err)
		}
		got := out.Buffer("out")
		wantScaled(t, in, got, fmt.Sprintf("%+v", spec))
		return got
	}

	// Each of these differs from the first in exactly one key field; all
	// must miss (distinct entries), and each must still compute the right
	// bytes for its own Param.
	distinct := []struct {
		spec dist.ProgramSpec
		n    int
	}{
		{dist.ProgramSpec{Name: "scale", Param: 24, Kernels: 4, Unroll: 1}, 24},
		{dist.ProgramSpec{Name: "scale", Param: 48, Kernels: 4, Unroll: 1}, 48}, // buffer size
		{dist.ProgramSpec{Name: "scale", Param: 24, Kernels: 2, Unroll: 1}, 24}, // kernels
		{dist.ProgramSpec{Name: "scale", Param: 24, Kernels: 4, Unroll: 2}, 24}, // unroll
	}
	for _, tc := range distinct {
		run(tc.spec, tc.n)
	}
	if h, m := hits.Value(), misses.Value(); h != 0 || m != int64(len(distinct)) {
		t.Fatalf("after %d distinct specs: hits/misses = %d/%d, want 0/%d", len(distinct), h, m, len(distinct))
	}

	// Resubmitting each is a pure hit — and still yields that spec's own
	// output bytes, not a collided neighbor's.
	for _, tc := range distinct {
		run(tc.spec, tc.n)
	}
	if h, m := hits.Value(), misses.Value(); h != int64(len(distinct)) || m != int64(len(distinct)) {
		t.Fatalf("after resubmits: hits/misses = %d/%d, want %d/%d", h, m, len(distinct), len(distinct))
	}
}

// TestSubmitWarmPathAllocs pins the warm admission hot path at zero
// allocations: a resolve hit is a map lookup plus an LRU splice, so the
// cache can't silently regress to per-Submit allocation.
func TestSubmitWarmPathAllocs(t *testing.T) {
	tw := newTestWorkloads()
	d := startDaemon(t, 2, 2, tw, Options{}, dist.Options{})
	defer func() {
		for i, err := range d.stop(t) {
			if err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}
	}()

	spec := dist.ProgramSpec{Name: "scale", Param: 24, Kernels: 4, Unroll: 1}
	warm, reason := d.srv.resolveProgram(spec)
	if warm == nil {
		t.Fatalf("warming resolve rejected: %s", reason)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ent, _ := d.srv.resolveProgram(spec)
		if ent != warm {
			t.Fatal("warm resolve returned a different entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm resolveProgram allocates %.1f times per hit, want 0", allocs)
	}
}

// What one warm FFT-32/1 submit-and-wait through a Client allocates
// process-wide (client, daemon, fleet loop, both workers, codec), the
// compile-bound half of the benchmark's serve-warm op: 79 times as
// measured over 35 runs, + 5 %. It was 207 while the fleet leased a new
// *lease per dispatched instance. Under the race detector sync.Pool drops
// a share of what it is given: 356–408 times over 15 runs, + 10 %.
const (
	serveWarmRoundTripAllocsCeiling     = 83
	serveWarmRoundTripRaceAllocsCeiling = 450
)

// TestServeWarmRoundTripAllocs pins the daemon's warm path: after the
// program is cached and its replicas pooled, one submission of FFT-32/1
// on two single-kernel nodes, the serve-warm workload's daemon, stays
// under a measured allocation ceiling, and its result verifies against a
// local replica.
func TestServeWarmRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count needs a quiet process")
	}
	tw := newTestWorkloads()
	d := startDaemon(t, 2, 1, tw, Options{}, dist.Options{})
	defer func() {
		for i, err := range d.stop(t) {
			if err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}
	}()
	c := d.dial(t, "warm")
	defer c.Close() //nolint:errcheck

	spec := dist.ProgramSpec{Name: "FFT", Param: 32, Kernels: 2, Unroll: 1}
	var last *Outcome
	submit := func() {
		p, err := c.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != "" {
			t.Fatalf("FFT-32/1 failed: %s", out.Err)
		}
		last = out
	}
	submit() // resolve, cache and pool the replicas
	got := testing.AllocsPerRun(20, submit)
	t.Logf("FFT-32/1 warm submit-and-wait: %.0f allocs", got)

	job := workload.FFTSpec().Make(spec.Param)
	if _, err := job.Build(spec.Kernels, spec.Unroll); err != nil {
		t.Fatal(err)
	}
	if err := VerifyReplica(job, last.Regions); err != nil {
		t.Fatal(err)
	}
	ceiling := serveWarmRoundTripAllocsCeiling
	if raceBuild {
		ceiling = serveWarmRoundTripRaceAllocsCeiling
	}
	if got > float64(ceiling) {
		t.Fatalf("FFT-32/1 warm submit-and-wait allocates %.0f times, want <= %d", got, ceiling)
	}
}

// TestWarmColdIdenticalOutputs runs the same submission stream against a
// cache-disabled daemon and a cache-enabled one: every program's output
// bytes must be identical — the cache is invisible except in speed. The
// fleet's released receive buffers are poisoned throughout.
func TestWarmColdIdenticalOutputs(t *testing.T) {
	poisonRecycled(t)
	const rounds = 12
	type result struct{ out []byte }
	collect := func(cacheCap int) ([]result, int64) {
		reg := obs.NewRegistry()
		tw := newTestWorkloads()
		d := startDaemon(t, 2, 2, tw, Options{ProgramCache: cacheCap, Metrics: reg}, dist.Options{})
		defer func() {
			for i, err := range d.stop(t) {
				if err != nil {
					t.Errorf("node %d: %v", i, err)
				}
			}
		}()
		c := d.dial(t, "twin")
		defer c.Close() //nolint:errcheck
		var rs []result
		for i := 0; i < rounds; i++ {
			in := make([]byte, 24)
			for j := range in {
				in[j] = byte(i*31 + j)
			}
			p, err := c.Submit(dist.ProgramSpec{Name: "scale", Param: 24},
				[]dist.RegionData{{Buffer: "in", Offset: 0, Data: in, Size: 24}})
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if out.Err != "" {
				t.Fatalf("round %d failed: %s", i, out.Err)
			}
			rs = append(rs, result{out: append([]byte(nil), out.Buffer("out")...)})
		}
		return rs, reg.Counter("serve.program_cache_hits").Value()
	}

	cold, coldHits := collect(-1)
	warm, warmHits := collect(0) // default capacity
	if coldHits != 0 {
		t.Fatalf("cache-disabled run recorded %d hits", coldHits)
	}
	if warmHits == 0 {
		t.Fatal("cache-enabled run recorded no hits")
	}
	for i := range cold {
		if !bytes.Equal(cold[i].out, warm[i].out) {
			t.Fatalf("round %d: cold and warm outputs differ: %v vs %v", i, cold[i].out, warm[i].out)
		}
	}
}
