package dist

import (
	"fmt"
	"net"
	"time"
)

// ServiceConn is the exported framing endpoint for the client↔daemon
// service protocol (Submit/Accept/Reject/Result, protocol v2). Both
// sides of a tfluxd connection hold one: the client sends Submits and
// receives the rest; the daemon mirrors it. Sends are safe for
// concurrent use (each frame is one atomic write); Recv must be called
// from a single goroutine.
type ServiceConn struct {
	l *link
}

// NewServiceConn wraps a connection in the service framing.
func NewServiceConn(conn net.Conn) *ServiceConn {
	return &ServiceConn{l: newLink(conn)}
}

// SetWriteTimeout bounds each frame write; zero disables the bound.
func (sc *ServiceConn) SetWriteTimeout(d time.Duration) { sc.l.wtimeout = d }

// SendSubmit sends one program submission.
func (sc *ServiceConn) SendSubmit(s *Submit) error { return sc.l.sendSubmit(s) }

// SendAccept acknowledges a submission with its assigned program id.
func (sc *ServiceConn) SendAccept(seq uint64, prog uint32) error {
	return sc.l.sendAccept(seq, prog)
}

// SendReject declines a submission.
func (sc *ServiceConn) SendReject(seq uint64, reason string) error {
	return sc.l.sendReject(seq, reason)
}

// SendResult delivers a finished program's outcome.
func (sc *ServiceConn) SendResult(res *Result) error { return sc.l.sendResult(res) }

// ServiceFrame is one decoded service-protocol frame; exactly one field
// is non-nil.
type ServiceFrame struct {
	Submit *Submit
	Accept *Accept
	Reject *Reject
	Result *Result
}

// Recv reads the next service frame, rejecting worker-protocol frames —
// a client that dials a worker port (or vice versa) fails with a clear
// error instead of desynchronizing. The frame is decoded into a buffer of
// its own, never recycled: its regions end up in a Submit or an Outcome.
func (sc *ServiceConn) Recv() (ServiceFrame, error) {
	f, err := sc.l.recvInto(new(rxBuf))
	if err != nil {
		return ServiceFrame{}, err
	}
	switch f.typ {
	case ftSubmit:
		return ServiceFrame{Submit: &f.submit}, nil
	case ftAccept:
		return ServiceFrame{Accept: &f.accept}, nil
	case ftReject:
		return ServiceFrame{Reject: &f.reject}, nil
	case ftResult:
		return ServiceFrame{Result: &f.result}, nil
	}
	return ServiceFrame{}, fmt.Errorf("dist: unexpected %v frame on service connection", f.typ)
}

// Close closes the underlying connection.
func (sc *ServiceConn) Close() error { return sc.l.close() }
