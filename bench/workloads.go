package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"tflux/internal/cellsim"
	"tflux/internal/core"
	"tflux/internal/dist"
	"tflux/internal/hardsim"
	"tflux/internal/rts"
	"tflux/internal/serve"
	"tflux/internal/vtime"
	"tflux/internal/workload"
)

// Everything is sized for the 2-vCPU host the numbers are taken on: two
// kernels, two nodes, two client connections.
const (
	kernels = 2
	nodes   = 2
)

// instance is one set-up workload: the state its ops run against.
type instance interface {
	// op performs one operation for the given client, verifying every
	// output it produces; tr is nil when tracing is off.
	op(client int, tr *tracer) error
	// check verifies the run-wide invariants after the last op and
	// records the layer's end-of-run counts.
	check(tr *tracer) error
	// exact returns the counts that must repeat exactly from run to run,
	// traced or not.
	exact() map[string]int64
	close() error
}

// workloadDef describes one closed-loop workload; BENCHMARK.json says why
// each was chosen. The op counts are fixed so that a segment, a warm-up
// and a ledger pass do the same work on every run; they were sized on the
// reference host for ≈ 0.5 s segments and ≈ 1 s set-ups.
type workloadDef struct {
	name      string
	clients   int
	segOps    int // ops per client in one measured segment
	warmOps   int // ops per client in the set-up's warm-up
	ledgerOps int // ops per client when traced for another workload's ledger
	setup     func(seed int64) (instance, error)
}

var workloads = []workloadDef{
	{name: "soft-finegrain", clients: 1, segOps: 64, warmOps: 120, ledgerOps: 30,
		setup: func(int64) (instance, error) { return newSoft() }},
	{name: "platform-sweep", clients: 1, segOps: 16, warmOps: 40, ledgerOps: 12,
		setup: func(int64) (instance, error) { return newSweep() }},
	{name: "serve-warm", clients: 2, segOps: 60, warmOps: 130, ledgerOps: 30,
		setup: func(seed int64) (instance, error) { return newServe(false, seed) }},
	{name: "serve-cold", clients: 2, segOps: 30, warmOps: 70, ledgerOps: 20,
		setup: func(seed int64) (instance, error) { return newServe(true, seed) }},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// prog is one benchmark program with its sequential reference: the job
// holds the inputs and the reference output, p is the DDM program that
// writes the job's parallel output, svb the zero-copy view of its buffers.
type prog struct {
	tag   string // metric-name suffix, e.g. "fft32"
	spec  dist.ProgramSpec
	job   workload.Job
	p     *core.Program
	svb   *cellsim.SharedVariableBuffer
	names map[string]string
}

// name returns prefix+tag, cached so ops build no strings.
func (pr *prog) name(prefix string) string {
	n, ok := pr.names[prefix]
	if !ok {
		n = prefix + pr.tag
		pr.names[prefix] = n
	}
	return n
}

func newProg(tag, name string, param, unroll int) (*prog, error) {
	ws, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	job := ws.Make(param)
	p, err := job.Build(kernels, unroll)
	if err != nil {
		return nil, err
	}
	job.RunSequential()
	return &prog{
		tag:  tag,
		spec: dist.ProgramSpec{Name: name, Param: param, Kernels: kernels, Unroll: unroll},
		job:  job, p: p, svb: job.SharedBuffers(),
		names: make(map[string]string),
	}, nil
}

// The six programs the workloads are made of.
func trapez1() (*prog, error)   { return newProg("trapez1", "TRAPEZ", 19, 1) }
func fft64() (*prog, error)     { return newProg("fft64", "FFT", 64, 1) }
func mmult128() (*prog, error)  { return newProg("mmult", "MMULT", 128, 8) }
func susan256() (*prog, error)  { return newProg("susan", "SUSAN", 256<<16|288, 32) }
func fft32() (*prog, error)     { return newProg("fft32", "FFT", 32, 1) }
func trapez512() (*prog, error) { return newProg("trapez512", "TRAPEZ", 19, 512) }

func buildProgs(ctors ...func() (*prog, error)) ([]*prog, error) {
	progs := make([]*prog, len(ctors))
	for i, ctor := range ctors {
		var err error
		if progs[i], err = ctor(); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// overlay copies bytes produced in another address space over the job's
// own copy of a declared buffer; job.Verify then checks them against the
// sequential reference (the replica check of internal/exp/serve.go).
func (pr *prog) overlay(buffer string, offset int64, data []byte) {
	if dst := pr.svb.Bytes(buffer); int64(len(dst)) >= offset+int64(len(data)) {
		copy(dst[offset:], data)
	}
}

// verifySVB checks a run that left its results in another buffer registry.
func (pr *prog) verifySVB(svb *cellsim.SharedVariableBuffer) error {
	for _, b := range pr.p.Buffers {
		pr.overlay(b.Name, 0, svb.Bytes(b.Name))
	}
	return pr.job.Verify()
}

// verifyRegions checks a run whose results came back as wire regions.
func (pr *prog) verifyRegions(regions []dist.RegionData) error {
	for i := range regions {
		pr.overlay(regions[i].Buffer, regions[i].Offset, regions[i].Data)
	}
	return pr.job.Verify()
}

// fingerprint hashes result bytes buffer by buffer in name order, so two
// runs that produced the same bytes agree whatever order they report in.
func fingerprint(bytesOf func(buffer string) []byte, buffers []core.Buffer) uint64 {
	names := make([]string, len(buffers))
	for i, b := range buffers {
		names[i] = b.Name
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))  //nolint:errcheck // hash.Hash never fails
		h.Write(bytesOf(n)) //nolint:errcheck
	}
	return h.Sum64()
}

// ---- soft-finegrain --------------------------------------------------

// plane is one of the two TFluxSoft readiness planes.
type plane struct {
	name                  string
	opt                   rts.Options
	span, nsPerInst, idle string // span-name prefix and metric names
}

var planes = []plane{
	{"single", rts.Options{Kernels: kernels},
		"rts.Run/single/", "rts.single.ns_per_instance.", "rts.single.idle_share"},
	{"sharded", rts.Options{Kernels: kernels, TSUShards: kernels},
		"rts.Run/sharded/", "rts.sharded.ns_per_instance.", "rts.sharded.idle_share"},
}

// softCounts are the per-op work counts of soft-finegrain.
type softCounts struct {
	instances, decrements, crossShard int64
}

type softInst struct {
	progs []*prog
	first *softCounts // the first op's counts; every later op must match
}

func newSoft() (*softInst, error) {
	progs, err := buildProgs(trapez1, fft64)
	if err != nil {
		return nil, err
	}
	return &softInst{progs: progs}, nil
}

// op runs both programs once on each plane: four rts.Run calls.
func (s *softInst) op(_ int, tr *tracer) error {
	var got softCounts
	var pushes int64
	for _, pl := range planes {
		var idle, avail time.Duration
		for _, pr := range s.progs {
			pr.job.ResetOutput()
			sp := tr.begin(pr.name(pl.span))
			st, err := rts.Run(pr.p, pl.opt)
			d := tr.end(sp)
			if err != nil {
				return err
			}
			if err := pr.job.Verify(); err != nil {
				return fmt.Errorf("%s plane: %w", pl.name, err)
			}
			got.instances += st.TotalExecuted()
			got.decrements += st.TSU.Decrements
			got.crossShard += st.CrossShardDecrements
			pushes += st.TUB.Pushes
			tr.sample(pr.name(pl.nsPerInst), float64(d)/float64(st.TotalExecuted()))
			for _, i := range st.Idle {
				idle += i
			}
			avail += time.Duration(st.Kernels) * st.Elapsed
		}
		tr.sample(pl.idle, float64(idle)/float64(avail))
	}
	if s.first == nil {
		s.first = &got
	} else if got != *s.first {
		return fmt.Errorf("soft-finegrain: work counts changed between ops: %+v, first op %+v", got, *s.first)
	}
	tr.sample("tsu.tub_pushes_per_op", float64(pushes))
	return nil
}

func (s *softInst) check(*tracer) error {
	if s.first == nil {
		return errors.New("soft-finegrain: no op ran")
	}
	return nil
}

func (s *softInst) exact() map[string]int64 {
	if s.first == nil {
		return nil
	}
	return map[string]int64{
		"rts.instances_per_op":              s.first.instances,
		"tsu.decrements_per_op":             s.first.decrements,
		"tsu.cross_shard_decrements_per_op": s.first.crossShard,
	}
}

func (s *softInst) close() error { return nil }

// ---- platform-sweep --------------------------------------------------

type sweepInst struct {
	progs    []*prog
	resolver dist.Resolver
	cycles   []int64 // hardsim cycles per program, from the first op
}

func newSweep() (*sweepInst, error) {
	progs, err := buildProgs(mmult128, susan256)
	if err != nil {
		return nil, err
	}
	return &sweepInst{progs: progs, resolver: serve.WorkloadResolver(), cycles: make([]int64, len(progs))}, nil
}

// op runs both programs once on each of the five platforms.
func (s *sweepInst) op(_ int, tr *tracer) error {
	var cyc, simWall, dmaBytes, dmaXfers float64
	var out, in, msgs, batches, fired float64
	for ri, pr := range s.progs {
		// run times one platform entry point and verifies what it wrote.
		run := func(span, metric string, call func() error) (time.Duration, error) {
			pr.job.ResetOutput()
			sp := tr.begin(pr.name(span))
			err := call()
			d := tr.end(sp)
			if err == nil {
				err = pr.job.Verify()
			}
			if err != nil {
				return 0, fmt.Errorf("%s: %w", pr.name(span), err)
			}
			tr.sample(pr.name(metric), ms(d))
			return d, nil
		}

		if _, err := run("rts.Run/", "rts.run_ms.", func() error {
			_, err := rts.Run(pr.p, rts.Options{Kernels: kernels})
			return err
		}); err != nil {
			return err
		}
		if _, err := run("vtime.Run/", "vtime.run_ms.", func() error {
			_, err := vtime.Run(pr.p, vtime.Config{Kernels: kernels})
			return err
		}); err != nil {
			return err
		}
		if _, err := run("cellsim.Run/", "cellsim.run_ms.", func() error {
			st, err := cellsim.Run(pr.p, pr.svb, cellsim.Config{SPEs: kernels})
			if err == nil {
				dmaBytes += float64(st.DMABytesIn + st.DMABytesOut)
				dmaXfers += float64(st.DMATransfers)
			}
			return err
		}); err != nil {
			return err
		}
		var cycles int64
		d, err := run("hardsim.Run/", "hardsim.run_ms.", func() error {
			res, err := hardsim.Run(pr.p, hardsim.Config{Cores: 8})
			if err == nil {
				cycles = int64(res.Cycles)
			}
			return err
		})
		if err != nil {
			return err
		}
		if s.cycles[ri] == 0 {
			s.cycles[ri] = cycles
		} else if cycles != s.cycles[ri] {
			return fmt.Errorf("hardsim %s: %d cycles, first op had %d", pr.tag, cycles, s.cycles[ri])
		}
		cyc += float64(cycles)
		simWall += float64(d)

		// dist: every node builds its own replica through the resolver;
		// the coordinator's buffers come back and are checked against
		// the long-lived job.
		pr.job.ResetOutput()
		sp := tr.begin(pr.name("dist.RunLocal/"))
		st, svb, err := dist.RunLocal(func() (*core.Program, *cellsim.SharedVariableBuffer) {
			p, b, err := s.resolver(pr.spec)
			if err != nil {
				panic(err) // the same spec resolved during set-up
			}
			return p, b
		}, nodes, 1)
		d = tr.end(sp)
		if err != nil {
			return fmt.Errorf("dist %s: %w", pr.tag, err)
		}
		if err := pr.verifySVB(svb); err != nil {
			return fmt.Errorf("dist %s: %w", pr.tag, err)
		}
		tr.sample(pr.name("dist.runlocal_ms."), ms(d))
		out += float64(st.BytesOut)
		in += float64(st.BytesIn)
		msgs += float64(st.Messages)
		batches += float64(st.Batches)
		fired += float64(st.TSU.Fired)
	}
	tr.sample("hardsim.sim_cycles_per_us", cyc/(simWall/1e3))
	tr.sample("cellsim.dma_bytes_per_op", dmaBytes)
	tr.sample("cellsim.dma_transfers_per_op", dmaXfers)
	tr.sample("dist.bytes_out_per_instance", out/fired)
	tr.sample("dist.bytes_in_per_instance", in/fired)
	tr.sample("dist.messages_per_instance", msgs/fired)
	tr.sample("dist.batches_per_op", batches)
	return nil
}

func (s *sweepInst) check(*tracer) error {
	for ri, c := range s.cycles {
		if c == 0 {
			return fmt.Errorf("platform-sweep: no hardsim cycles recorded for %s", s.progs[ri].tag)
		}
	}
	return nil
}

func (s *sweepInst) exact() map[string]int64 {
	m := make(map[string]int64, len(s.progs))
	for ri, pr := range s.progs {
		m[pr.name("hardsim.cycles.")] = s.cycles[ri]
	}
	return m
}

func (s *sweepInst) close() error { return nil }

// ---- serve-warm / serve-cold -----------------------------------------

// serveClient is one tenant connection with its own replica jobs, so two
// clients verify outcomes without sharing buffers.
type serveClient struct {
	c     *serve.Client
	progs []*prog
	last  []*serve.Outcome // the latest outcome per program, fingerprinted by check
}

type serveInst struct {
	mode string // "warm" or "cold"
	// metric-name prefixes, e.g. "serve.warm.submit_wait_ms."
	mSubmitWait, mExec, mOverhead, mOp string

	fleet     *dist.Fleet
	fleetWait func() []error
	srv       *serve.Server
	ln        net.Listener
	served    chan struct{} // closed when srv.Serve returns
	clients   []*serveClient
	want      []uint64 // fingerprint of a local run, per program
	submitted atomic.Int64
	// first is the tenant the loop's client 0 drives: the seed decides
	// which of the two connections starts each segment.
	first int
}

func newServe(cold bool, seed int64) (_ *serveInst, err error) {
	s := &serveInst{mode: "warm", served: make(chan struct{}), first: int(seed & 1)}
	cache := 0 // the default program cache
	if cold {
		s.mode, cache = "cold", -1
	}
	s.mSubmitWait = "serve." + s.mode + ".submit_wait_ms."
	s.mExec = "serve." + s.mode + ".exec_ms."
	s.mOverhead = "serve." + s.mode + ".overhead_ms."
	s.mOp = "serve." + s.mode + ".op_ms"
	defer func() {
		if err != nil {
			s.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()

	// The expected result bytes come from a local run of each program.
	ref, err := buildProgs(fft32, trapez512)
	if err != nil {
		return nil, err
	}
	for _, pr := range ref {
		pr.job.ResetOutput()
		if _, err := rts.Run(pr.p, rts.Options{Kernels: 1}); err != nil {
			return nil, err
		}
		if err := pr.job.Verify(); err != nil {
			return nil, err
		}
		s.want = append(s.want, fingerprint(pr.svb.Bytes, pr.p.Buffers))
	}

	resolver := serve.WorkloadResolver()
	if s.fleet, s.fleetWait, err = dist.NewLocalFleet(nodes, 1, resolver, dist.Options{}); err != nil {
		return nil, err
	}
	if s.srv, err = serve.New(s.fleet, serve.Options{Resolver: resolver, ProgramCache: cache}); err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.served)
		s.srv.Serve(s.ln) //nolint:errcheck // returns when close shuts the listener
	}()
	for c := 0; c < 2; c++ {
		cl := &serveClient{last: make([]*serve.Outcome, len(ref))}
		if cl.progs, err = buildProgs(fft32, trapez512); err != nil {
			return nil, err
		}
		if cl.c, err = serve.Dial(s.ln.Addr().String(), fmt.Sprintf("tenant-%d", c)); err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// op submits FFT-32/unroll 1 and waits, then TRAPEZ-2^19/unroll 512 and
// waits: the compile-bound and the execution-bound shape in one op.
func (s *serveInst) op(client int, tr *tracer) error {
	cl := s.clients[(client+s.first)%len(s.clients)]
	var total time.Duration
	for ri, pr := range cl.progs {
		sp := tr.begin(pr.name("serve.Submit+Wait/"))
		pend, err := cl.c.Submit(pr.spec, nil)
		if err != nil {
			tr.end(sp)
			return err
		}
		s.submitted.Add(1)
		out, err := pend.Wait()
		d := tr.end(sp)
		if err != nil {
			return err
		}
		if out.Err != "" {
			return fmt.Errorf("serve %s: program failed: %s", pr.tag, out.Err)
		}
		if err := pr.verifyRegions(out.Regions); err != nil {
			return fmt.Errorf("serve %s: %w", pr.tag, err)
		}
		cl.last[ri] = out
		tr.sample(pr.name(s.mSubmitWait), ms(d))
		tr.sample(pr.name(s.mExec), ms(out.Elapsed))
		tr.sample(pr.name(s.mOverhead), ms(d-out.Elapsed))
		total += d
	}
	tr.sample(s.mOp, ms(total))
	return nil
}

func (s *serveInst) check(tr *tracer) error {
	snap := s.srv.Snapshot()
	tr.sample("serve."+s.mode+".cache_hit_ratio", float64(snap.CacheHits)/float64(snap.Submitted))
	tr.sample("serve.completed", float64(snap.Completed))
	tr.sample("serve.failed", float64(snap.Failed))
	tr.sample("serve.rejected", float64(snap.Rejected))
	if snap.Failed != 0 || snap.Rejected != 0 || snap.Completed != s.submitted.Load() {
		return fmt.Errorf("serve-%s: completed/failed/rejected = %d/%d/%d, want %d/0/0",
			s.mode, snap.Completed, snap.Failed, snap.Rejected, s.submitted.Load())
	}
	if s.mode == "warm" && snap.CacheHits == 0 {
		return fmt.Errorf("serve-warm: no cache hits (%d misses)", snap.CacheMisses)
	}
	if s.mode == "cold" && snap.CacheHits != 0 {
		return fmt.Errorf("serve-cold: %d cache hits with the cache off", snap.CacheHits)
	}
	for c, cl := range s.clients {
		for ri, out := range cl.last {
			if out == nil {
				return fmt.Errorf("serve-%s: client %d ran no op", s.mode, c)
			}
			if got := fingerprint(out.Buffer, cl.progs[ri].p.Buffers); got != s.want[ri] {
				return fmt.Errorf("serve-%s: client %d %s result fingerprint %016x, local run %016x",
					s.mode, c, cl.progs[ri].tag, got, s.want[ri])
			}
		}
	}
	return nil
}

func (s *serveInst) exact() map[string]int64 { return nil }

// close stops the clients, the daemon and the fleet, and waits for every
// goroutine they started.
func (s *serveInst) close() error {
	for _, cl := range s.clients {
		if cl.c != nil {
			cl.c.Close() //nolint:errcheck // only read from
		}
	}
	if s.ln != nil {
		s.ln.Close() //nolint:errcheck
		<-s.served
	}
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	if s.fleet != nil {
		err = errors.Join(err, s.fleet.Close())
		err = errors.Join(append([]error{err}, s.fleetWait()...)...)
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
