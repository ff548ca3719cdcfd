package main

import (
	"errors"
	"fmt"
	"net"

	"tflux/internal/core"
	"tflux/internal/ddmlint"
	"tflux/internal/dist"
	"tflux/internal/mem"
	"tflux/internal/rts"
	"tflux/internal/serve"
	"tflux/internal/stream"
	"tflux/internal/tsu"
	"tflux/internal/workload"
)

// The probes time each layer's public entry points in isolation, the way
// the SPARC T3-4 characterisation measures a machine before interpreting
// application numbers: fixed iteration counts, one span per timed batch,
// one sample per batch. They run once per traced run, after the workload
// ops, and use no workload state.

// probeSink keeps results the probes do not otherwise use alive.
var probeSink int64

func runProbes(tr *tracer, seed int64) error {
	tr.beginOp(-1)
	root := tr.begin("probes")
	defer tr.end(root)
	for _, probe := range []func(*tracer) error{probeTSU, probeMem, probeServiceRoundTrip, probeSequential, probeAdmission, probeFleet} {
		if err := probe(tr); err != nil {
			return err
		}
	}
	return probeStream(tr, seed)
}

// probeTSU times the readiness primitives on the graph shapes
// internal/tsu/bench_test.go uses: Complete on an AllToOne reduction, and
// the TUB's 64-pushes-then-drain cycle.
func probeTSU(tr *tracer) error {
	const n, batches = 4096, 30
	p := core.NewProgram("alltoone")
	blk := p.AddBlock()
	prod := core.NewTemplate(1, "prod", func(core.Context) {})
	prod.Instances = n
	prod.Then(2, core.AllToOne{})
	blk.Add(prod)
	blk.Add(core.NewTemplate(2, "red", func(core.Context) {}))
	tables, err := tsu.NewTables(p, kernels, tsu.Config{})
	if err != nil {
		return err
	}
	var ready []tsu.Ready
	for b := 0; b < batches; b++ {
		s := tables.Acquire()
		ready, _, _ = s.DoneInto(ready[:0], core.Instance{Thread: s.InletID(0)}, 0)
		sp := tr.begin("tsu.State.CompleteInto")
		for i := 0; i < n; i++ {
			ready, _, _ = s.CompleteInto(ready[:0], core.Instance{Thread: 1, Ctx: core.Context(i)}, 0)
		}
		d := tr.end(sp)
		s.Release()
		if len(ready) != 1 || ready[0].Inst.Thread != 2 {
			return fmt.Errorf("tsu probe: the last completion readied %v, want the reducer", ready)
		}
		tr.sample("tsu.complete_ns", float64(d)/n)
	}

	tub := tsu.NewTUB(kernels, tsu.TUBConfig{})
	rec := tsu.Completion{Inst: core.Instance{Thread: 1}}
	var recs []tsu.Completion
	for b := 0; b < batches; b++ {
		drained := 0
		sp := tr.begin("tsu.TUB.Push+Drain")
		for i := 0; i < n; i++ {
			tub.Push(rec)
			if i%64 == 63 {
				recs = tub.Drain(recs[:0])
				drained += len(recs)
			}
		}
		d := tr.end(sp)
		if drained != n {
			return fmt.Errorf("tub probe: drained %d of %d records", drained, n)
		}
		tr.sample("tsu.tub_push_drain_ns", float64(d)/n)
	}
	return nil
}

// probeMem times the cache-hierarchy replay hardsim spends its memory
// phase in: line-sized accesses from eight cores scattered over 8 MiB,
// one in four a write.
func probeMem(tr *tracer) error {
	const n, batches = 50_000, 20
	h := mem.NewHierarchy(8, mem.DefaultConfig())
	for b := 0; b < batches; b++ {
		var cost int64
		sp := tr.begin("mem.Hierarchy.Access")
		for i := 0; i < n; i++ {
			addr := uint64(i) * 2654435761 % (8 << 20) &^ 63
			cost += h.Access(i&7, addr, 64, i&3 == 0)
		}
		d := tr.end(sp)
		probeSink += cost
		tr.sample("mem.access_ns", float64(d)/n)
	}
	return nil
}

// probeServiceRoundTrip times one Submit→Accept echo over loopback TCP on
// the service framing, with no daemon behind it: the floor under every
// serve submission.
func probeServiceRoundTrip(tr *tracer) error {
	const n = 2000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // only accepted from
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		sc := dist.NewServiceConn(conn)
		defer sc.Close() //nolint:errcheck
		for i := 0; i < n; i++ {
			f, err := sc.Recv()
			if err == nil && f.Submit == nil {
				err = errors.New("echo: not a Submit frame")
			}
			if err == nil {
				err = sc.SendAccept(f.Submit.Seq, 1)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() //nolint:errcheck // unblocks the echo goroutine
		<-echoed
		return err
	}
	sc := dist.NewServiceConn(conn)
	sub := &dist.Submit{Tenant: "probe", Spec: dist.ProgramSpec{Name: "FFT", Param: 32, Kernels: kernels, Unroll: 1}}
	var rtErr error
	for i := 0; i < n && rtErr == nil; i++ {
		sub.Seq = uint64(i)
		sp := tr.begin("dist.ServiceConn.SendSubmit+Recv")
		rtErr = sc.SendSubmit(sub)
		var f dist.ServiceFrame
		if rtErr == nil {
			f, rtErr = sc.Recv()
		}
		d := tr.end(sp)
		if rtErr == nil && (f.Accept == nil || f.Accept.Seq != sub.Seq) {
			rtErr = fmt.Errorf("round trip %d: wrong reply", i)
		}
		tr.sample("dist.service_roundtrip_us", float64(d)/1e3)
	}
	sc.Close() //nolint:errcheck // ends the echo goroutine if it is still reading
	return errors.Join(rtErr, <-echoed)
}

// timed calls f n times, each call one span, and records each duration in
// the unit that scale nanoseconds make.
func timed(tr *tracer, span, metric string, n int, scale float64, f func() error) error {
	for i := 0; i < n; i++ {
		sp := tr.begin(span)
		err := f()
		d := tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", span, err)
		}
		tr.sample(metric, float64(d)/scale)
	}
	return nil
}

// probeSequential times the sequential references platform-sweep's
// speed-ups are taken against.
func probeSequential(tr *tracer) error {
	progs, err := buildProgs(mmult128, susan256)
	if err != nil {
		return err
	}
	for _, pr := range progs {
		err := timed(tr, pr.name("workload.Job.RunSequential/"), pr.name("workload.seq_ms."), 10, 1e6, func() error {
			pr.job.RunSequential()
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeAdmission times what a cold submission pays before its program
// reaches the fleet and a warm one skips — resolve, the ddmlint admission
// gate, TSU table construction — plus the pooled-state round trip a warm
// session pays instead, and the bare rts.Run of the two serve programs
// for the submission budget.
func probeAdmission(tr *tracer) error {
	progs, err := buildProgs(fft32, trapez512)
	if err != nil {
		return err
	}
	resolver := serve.WorkloadResolver()
	for _, pr := range progs {
		if err := timed(tr, pr.name("serve.WorkloadResolver/"), pr.name("serve.resolve_us."), 20, 1e3, func() error {
			_, _, err := resolver(pr.spec)
			return err
		}); err != nil {
			return err
		}
		if err := timed(tr, pr.name("ddmlint.Admit/"), pr.name("ddmlint.lint_us."), 20, 1e3, func() error {
			return ddmlint.Admit(pr.p)
		}); err != nil {
			return err
		}
		var tables *tsu.Tables
		if err := timed(tr, pr.name("tsu.NewTables/"), pr.name("tsu.tables_build_us."), 20, 1e3, func() (err error) {
			tables, err = tsu.NewTables(pr.p, kernels, tsu.Config{})
			return err
		}); err != nil {
			return err
		}
		if pr.tag == "fft32" {
			const n = 1000
			if err := timed(tr, "tsu.Tables.Acquire+Release", "tsu.acquire_release_ns", 20, n, func() error {
				for i := 0; i < n; i++ {
					tables.Acquire().Release()
				}
				return nil
			}); err != nil {
				return err
			}
		}
		for i := 0; i < 30; i++ {
			pr.job.ResetOutput()
			sp := tr.begin(pr.name("rts.Run/"))
			_, err := rts.Run(pr.p, rts.Options{Kernels: kernels})
			d := tr.end(sp)
			if err == nil {
				err = pr.job.Verify()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", pr.name("rts.Run/"), err)
			}
			tr.sample(pr.name("rts.run_ms."), ms(d))
		}
	}
	return nil
}

// probeFleet runs the two serve programs on a second local fleet with no
// daemon in the path, opened the way the daemon opens them: warm by
// content address with pooled tables, cold with the full spec and fresh
// TSU state.
func probeFleet(tr *tracer) (err error) {
	progs, err := buildProgs(fft32, trapez512)
	if err != nil {
		return err
	}
	resolver := serve.WorkloadResolver()
	flt, wait, err := dist.NewLocalFleet(nodes, 1, resolver, dist.Options{})
	if err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, flt.Close())
		err = errors.Join(append([]error{err}, wait()...)...)
	}()
	flt.Start()

	id := uint32(1)
	for _, pr := range progs {
		p, svb, err := resolver(pr.spec)
		if err != nil {
			return err
		}
		src := make(map[string][]byte, len(p.Buffers))
		for _, b := range p.Buffers {
			src[b.Name] = append([]byte(nil), svb.Bytes(b.Name)...)
		}
		tables, err := tsu.NewTables(p, flt.Kernels(), tsu.Config{})
		if err != nil {
			return err
		}
		// open runs the program once as a session opened with req and
		// checks the bytes it left in the coordinator's buffers.
		open := func(span, metric string, req dist.OpenReq) error {
			for name, b := range src {
				copy(svb.Bytes(name), b)
			}
			done := make(chan error, 1)
			req.Prog, req.SVB, req.Spec = p, svb, pr.spec
			req.OnDone = func(_ *dist.Stats, err error) { done <- err }
			id++
			sp := tr.begin(pr.name(span))
			err := flt.Open(id, req)
			if err == nil {
				err = <-done
			}
			d := tr.end(sp)
			if err == nil {
				err = pr.verifySVB(svb)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", pr.name(span), err)
			}
			tr.sample(pr.name(metric), ms(d))
			return nil
		}
		for i := 0; i < 30; i++ {
			if err := open("dist.Fleet.Open/warm/", "dist.fleet_run_ms.", dist.OpenReq{Hash: pr.spec.Hash(), Tables: tables}); err != nil {
				return err
			}
		}
		for i := 0; i < 30; i++ {
			if err := open("dist.Fleet.Open/cold/", "dist.fleet_run_cold_ms.", dist.OpenReq{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeStream runs the third readiness plane, the windowed streaming run
// loop, on EVENTFILTER: window 256, 4 slots, 1 worker, 100 000 unpaced
// events. The seed feeds the event payloads.
func probeStream(tr *tracer, seed int64) error {
	const events, runs = 100_000, 5
	for r := 0; r < runs; r++ {
		ef, err := workload.NewEventFilter(256, 4, uint32(seed))
		if err != nil {
			return err
		}
		sp := tr.begin("rts.RunStream/eventfilter")
		st, err := rts.RunStream(ef.Pipeline(), stream.NewCountSource(events, 0), stream.Options{Slots: 4, Workers: 1, Policy: stream.Block})
		d := tr.end(sp)
		if err != nil {
			return err
		}
		if err := ef.Verify(events); err != nil {
			return err
		}
		tr.sample("stream.ns_per_instance", float64(d)/float64(st.Fired))
		tr.sample("stream.events_per_s", st.AchievedEPS)
		tr.sample("stream.fired_per_run", float64(st.Fired))
		tr.sample("stream.max_in_flight", float64(st.MaxInFlight))
	}
	return nil
}
