package cellsim

import (
	"time"

	"tflux/internal/core"
	"tflux/internal/obs"
)

// SharedVariableBuffer is core.SharedVariableBuffer, the store Run stages
// regions of through the Local Stores. The alias exists only because the
// repo benchmark (bench/workloads.go) names the type through this package.
type SharedVariableBuffer = core.SharedVariableBuffer

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
