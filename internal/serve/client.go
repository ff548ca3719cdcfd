package serve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"tflux/internal/dist"
	"tflux/internal/workload"
)

// Outcome is one finished program as the daemon reported it.
type Outcome struct {
	Prog uint32
	// Err is the program's failure, empty on success. A non-empty Err
	// means the program was admitted and ran but did not complete (e.g.
	// the whole fleet was lost); rejections surface as Wait errors
	// instead.
	Err       string
	Elapsed   time.Duration
	Failovers int64
	Retries   int64
	// Regions carries the final bytes of every buffer the program
	// declared (success only).
	Regions []dist.RegionData
}

// Buffer returns the outcome's final bytes for one buffer, nil when
// absent.
func (o *Outcome) Buffer(name string) []byte {
	for i := range o.Regions {
		if o.Regions[i].Buffer == name {
			return o.Regions[i].Data
		}
	}
	return nil
}

// VerifyReplica checks a daemon's result against a local replica of the
// submitted program: regions are overlaid onto job's buffers, and job must
// then verify against its sequential reference (inputs are deterministic,
// so the replica is byte-comparable). job must have been built with the
// decomposition the submission named — auxiliary buffers are sized at
// Build time. A region that names a buffer the replica lacks, or does not
// fit it, is an error: skipping it would verify whatever the replica held
// before.
func VerifyReplica(job workload.Job, regions []dist.RegionData) error {
	svb := job.SharedBuffers()
	for _, r := range regions {
		dst, err := svb.Slice(r.Buffer, r.Offset, int64(len(r.Data)))
		if err != nil {
			return fmt.Errorf("serve: result does not fit the local replica: %w", err)
		}
		copy(dst, r.Data)
	}
	return job.Verify()
}

// Pending is one in-flight submission.
type Pending struct {
	done    chan struct{}
	outcome *Outcome
	err     error
}

// Wait blocks until the submission resolves. It returns an error when
// the submission was rejected or the connection failed; otherwise the
// Outcome (whose Err field reports a program that ran and failed).
func (p *Pending) Wait() (*Outcome, error) {
	<-p.done
	return p.outcome, p.err
}

// Client is one tenant's connection to a tfluxd daemon. Submissions
// may be issued concurrently; a reader goroutine demultiplexes the
// daemon's replies to their Pendings.
type Client struct {
	sc     *dist.ServiceConn
	tenant string

	mu     sync.Mutex
	seq    uint64
	bySeq  map[uint64]*Pending // awaiting Accept/Reject
	byProg map[uint32]*Pending // accepted, awaiting Result
	err    error               // terminal transport error
}

// Dial connects to a daemon and identifies as tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, tenant), nil
}

// NewClient wraps an established connection (the hook for wrapping the
// conn in fault injection first) and starts the reply reader.
func NewClient(conn net.Conn, tenant string) *Client {
	c := &Client{
		sc:     dist.NewServiceConn(conn),
		tenant: tenant,
		bySeq:  make(map[uint64]*Pending),
		byProg: make(map[uint32]*Pending),
	}
	go c.readLoop()
	return c
}

// Submit sends one program submission: the spec both sides will
// resolve, plus optional input regions overlaid onto the program's
// declared buffers before it runs.
func (c *Client) Submit(spec dist.ProgramSpec, regions []dist.RegionData) (*Pending, error) {
	p := &Pending{done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	seq := c.seq
	c.bySeq[seq] = p
	c.mu.Unlock()

	err := c.sc.SendSubmit(&dist.Submit{Seq: seq, Tenant: c.tenant, Spec: spec, Regions: regions})
	if err != nil {
		c.mu.Lock()
		delete(c.bySeq, seq)
		c.mu.Unlock()
		return nil, err
	}
	return p, nil
}

func (c *Client) readLoop() {
	for {
		f, err := c.sc.Recv()
		if err != nil {
			c.fail(fmt.Errorf("serve: connection to daemon lost: %w", err))
			return
		}
		switch {
		case f.Accept != nil:
			c.mu.Lock()
			if p := c.bySeq[f.Accept.Seq]; p != nil {
				delete(c.bySeq, f.Accept.Seq)
				c.byProg[f.Accept.Prog] = p
			}
			c.mu.Unlock()
		case f.Reject != nil:
			c.mu.Lock()
			p := c.bySeq[f.Reject.Seq]
			delete(c.bySeq, f.Reject.Seq)
			c.mu.Unlock()
			if p != nil {
				p.err = fmt.Errorf("serve: submission rejected: %s", f.Reject.Reason)
				close(p.done)
			}
		case f.Result != nil:
			res := f.Result
			c.mu.Lock()
			p := c.byProg[res.Prog]
			delete(c.byProg, res.Prog)
			c.mu.Unlock()
			if p == nil {
				continue
			}
			out := &Outcome{
				Prog:      res.Prog,
				Err:       res.Err,
				Elapsed:   time.Duration(res.ElapsedNS),
				Failovers: int64(res.Failovers),
				Retries:   int64(res.Retries),
			}
			// The decoded regions alias the frame buffer, which Recv
			// hands off to us wholesale — safe to retain without a copy.
			out.Regions = res.Regions
			p.outcome = out
			close(p.done)
		default:
			c.fail(fmt.Errorf("serve: unexpected frame from daemon"))
			return
		}
	}
}

// fail resolves every pending submission with err and poisons the
// client.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.err = err
	pend := make([]*Pending, 0, len(c.bySeq)+len(c.byProg))
	for _, p := range c.bySeq {
		pend = append(pend, p)
	}
	for _, p := range c.byProg {
		pend = append(pend, p)
	}
	c.bySeq = make(map[uint64]*Pending)
	c.byProg = make(map[uint32]*Pending)
	c.mu.Unlock()
	for _, p := range pend {
		p.err = err
		close(p.done)
	}
}

// Close tears down the connection; in-flight submissions resolve with
// a connection error.
func (c *Client) Close() error { return c.sc.Close() }
