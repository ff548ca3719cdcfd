package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSevered is returned by operations on a connection a Sever rule has
// cut.
var ErrSevered = errors.New("chaos: connection severed by plan")

// activeRule is one rule plus its per-connection firing state. One-shot
// rules (stalls, sever) fire once; continuous rules (latency, throttle)
// use fired only to log their activation once.
type activeRule struct {
	Rule
	fired bool
}

// Conn is a net.Conn executing a fault schedule. Writes and reads each
// count frames independently; write-side rules are evaluated under the
// write lock and read-side rules under the read lock, so the two
// directions stall independently (one-way faults).
type Conn struct {
	inner net.Conn
	node  int
	log   *Log

	rngMu sync.Mutex
	rng   *rand.Rand

	wmu     sync.Mutex
	wframes int64

	rmu     sync.Mutex
	rframes int64

	rules   []activeRule
	severed atomic.Bool
}

// jitter draws a uniform duration in [0, max) from the connection's
// seeded source. Draws happen in frame order per connection, so the
// sequence is reproducible across runs.
func (c *Conn) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(max)))
}

// Write implements net.Conn, applying write-side faults in rule order
// before handing the frame to the wrapped connection.
func (c *Conn) Write(b []byte) (int, error) {
	if c.severed.Load() {
		return 0, ErrSevered
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wframes++
	f := c.wframes
	for i := range c.rules {
		r := &c.rules[i]
		switch r.Kind {
		case Latency:
			if f > r.After {
				if !r.fired {
					r.fired = true
					c.log.add(c.node, r.Kind.String(), f, r.describe())
				}
				d := r.Dur + c.jitter(r.Jitter)
				if r.Ramp > 0 {
					d += time.Duration(f-r.After-1) * r.Ramp
				}
				time.Sleep(d)
			}
		case Throttle:
			if f > r.After && r.Rate > 0 {
				if !r.fired {
					r.fired = true
					c.log.add(c.node, r.Kind.String(), f, r.describe())
				}
				time.Sleep(time.Duration(int64(len(b)) * int64(time.Second) / r.Rate))
			}
		case StallWrite:
			if !r.fired && f > r.After {
				r.fired = true
				c.log.add(c.node, r.Kind.String(), f, r.describe())
				time.Sleep(r.Dur)
			}
		case Sever:
			if !r.fired && f > r.After {
				r.fired = true
				c.severed.Store(true)
				if r.MidFrame && len(b) > 1 {
					c.inner.Write(b[:len(b)/2]) //nolint:errcheck // partial delivery is the fault
				}
				c.log.add(c.node, r.Kind.String(), f, r.describe())
				c.inner.Close() //nolint:errcheck
				return 0, ErrSevered
			}
		}
	}
	return c.inner.Write(b)
}

// Read implements net.Conn, applying read-side faults before issuing
// the read on the wrapped connection.
func (c *Conn) Read(b []byte) (int, error) {
	if c.severed.Load() {
		return 0, ErrSevered
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.rframes++
	f := c.rframes
	for i := range c.rules {
		r := &c.rules[i]
		if r.Kind == StallRead && !r.fired && f > r.After {
			r.fired = true
			c.log.add(c.node, r.Kind.String(), f, r.describe())
			time.Sleep(r.Dur)
		}
	}
	return c.inner.Read(b)
}

// Close implements net.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
