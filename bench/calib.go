package main

import "time"

// The reference kernel. This host is a small guest on a shared machine,
// and what its neighbours do slows compute-dense code by 10–30 % for
// minutes at a time (README, "Noise"); no statistic of a run's wall times
// escapes that, because the whole run is slow. So every client runs this
// fixed piece of work between its ops, and an op is reported as its wall
// time over the mean of the two reference runs on either side of it: what
// slows the host slows both, and the ratio repeats where the time does
// not. The kernel is a 96×96 float64 matrix product written like the
// sequential MMULT reference (i-k-j, a saxpy inner loop): single-threaded,
// allocation-free, 216 KiB of data, about half a millisecond. It lives in
// the benchmark so that no change to the repository can move the unit.
const refN = 96

type refKernel struct {
	a, b, c []float64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		a: make([]float64, refN*refN),
		b: make([]float64, refN*refN),
		c: make([]float64, refN*refN),
	}
	for i := range k.a {
		k.a[i] = float64(i%13) + 0.5
		k.b[i] = float64(i%7) - 2.25
	}
	return k
}

// run multiplies the two matrices once and returns how long that took.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	for i := 0; i < refN; i++ {
		ci := k.c[i*refN : (i+1)*refN]
		for j := range ci {
			ci[j] = 0
		}
		ai := k.a[i*refN : (i+1)*refN]
		for kk, aik := range ai {
			bk := k.b[kk*refN : (kk+1)*refN]
			for j, b := range bk {
				ci[j] += aik * b
			}
		}
	}
	return time.Since(t0)
}
