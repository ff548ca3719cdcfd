package cellsim

import (
	"sync"
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
)

// SharedVariableBuffer is core.SharedVariableBuffer, the store Run stages
// regions of through the Local Stores. The alias exists only because the
// repo benchmark (bench/workloads.go) names the type through this package.
type SharedVariableBuffer = core.SharedVariableBuffer

// command is one entry a Kernel places into its CommandBuffer: a DThread
// completion notification.
type command struct {
	inst core.Instance
}

// commandBuffer is the per-SPE command ring the PPE polls. Its bounded
// capacity, commandBufCap, mirrors the paper's 128-byte main-memory
// buffer.
type commandBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []command
	closed bool
}

func newCommandBuffer() *commandBuffer {
	cb := &commandBuffer{buf: make([]command, 0, commandBufCap)}
	cb.cond = sync.NewCond(&cb.mu)
	return cb
}

// push blocks while the ring is full (the SPE stalls on its DMA of the
// command, as on real hardware). On a closed buffer the command is
// dropped: the run is aborting.
func (cb *commandBuffer) push(c command) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for len(cb.buf) >= commandBufCap && !cb.closed {
		cb.cond.Wait()
	}
	if cb.closed {
		return
	}
	cb.buf = append(cb.buf, c)
}

// drain moves all pending commands into dst.
func (cb *commandBuffer) drain(dst []command) []command {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.buf) > 0 {
		dst = append(dst, cb.buf...)
		cb.buf = cb.buf[:0]
		cb.cond.Broadcast()
	}
	return dst
}

func (cb *commandBuffer) close() {
	cb.mu.Lock()
	cb.closed = true
	cb.mu.Unlock()
	cb.cond.Broadcast()
}

// dma models one staging engine: copies between main memory and a Local
// Store arena in transfers of at most dmaChunk bytes, with traffic
// accounting.
type dma struct {
	bytesIn   int64
	bytesOut  int64
	transfers int64

	// Observability; nil when disabled.
	sink obs.Sink
	lane int
	hist *obs.Histogram
}

// stage copies src into the given Local Store window (import) or walks src
// through it to pay the write-out traffic (export), in dmaChunk-sized
// transfers. Resident regions land sequentially in the window; streamed
// regions reuse its start for every chunk (double-buffering). It returns
// the window bytes consumed (the largest chunk for streamed regions).
func (d *dma) stage(window []byte, src []byte, out, stream bool) int64 {
	var moved, used int64
	var t0 time.Duration
	var start time.Time
	if d.sink != nil || d.hist != nil {
		if d.sink != nil {
			t0 = d.sink.Now()
		}
		start = time.Now()
	}
	for len(src) > 0 {
		n := int64(dmaChunk)
		if n > int64(len(src)) {
			n = int64(len(src))
		}
		if stream {
			copy(window, src[:n])
			if n > used {
				used = n
			}
		} else {
			copy(window[moved:], src[:n])
			used = moved + n
		}
		src = src[n:]
		moved += n
		d.transfers++
	}
	if out {
		d.bytesOut += moved
	} else {
		d.bytesIn += moved
	}
	if d.sink != nil || d.hist != nil {
		dur := time.Since(start)
		if d.sink != nil {
			note := "in"
			if out {
				note = "out"
			}
			d.sink.Record(obs.Event{
				Kind:  obs.DMATransfer,
				Lane:  d.lane,
				Start: t0,
				Dur:   dur,
				Bytes: moved,
				Note:  note,
			})
		}
		if d.hist != nil {
			d.hist.ObserveDuration(dur)
		}
	}
	return used
}
