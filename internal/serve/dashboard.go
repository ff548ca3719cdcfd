package serve

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TenantSnap is one tenant's line in a Snapshot.
type TenantSnap struct {
	Name   string
	Weight int
	Queued int
	InUse  int // running + queued
}

// Snapshot is a point-in-time view of the daemon for dashboards.
type Snapshot struct {
	Uptime    time.Duration
	Submitted int64
	Accepted  int64
	Rejected  int64
	Completed int64
	Failed    int64
	Running   int
	Queued    int
	// ProgramsPerSec is completed programs over uptime.
	ProgramsPerSec float64
	// CacheHits and CacheMisses count admission-cache outcomes (a hit
	// skips resolve + lint + TSU table construction).
	CacheHits, CacheMisses int64
	// P50 and P99 are admission-to-completion latency quantiles from the
	// serve.latency_ns histogram: bucket midpoints, within 1/32 of a
	// sample.
	P50, P99 time.Duration
	// ArenaUsed / ArenaSize is the canonical-buffer arena occupancy.
	ArenaUsed, ArenaSize int64
	AliveNodes, Nodes    int
	Tenants              []TenantSnap
}

// Snapshot captures the daemon's current state.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		Uptime:     time.Since(s.start),
		Running:    s.running,
		Queued:     s.queued,
		ArenaUsed:  s.arena.size() - s.arena.available(),
		ArenaSize:  s.arena.size(),
		AliveNodes: s.fleet.AliveNodes(),
		Nodes:      s.fleet.Nodes(),
	}
	for name, ts := range s.tenants {
		snap.Tenants = append(snap.Tenants, TenantSnap{
			Name: name, Weight: ts.weight, Queued: len(ts.queue), InUse: ts.inUse,
		})
	}
	s.mu.Unlock()
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })

	snap.Submitted = s.cSubmitted.Value()
	snap.Accepted = s.cAccepted.Value()
	snap.Rejected = s.cRejected.Value()
	snap.Completed = s.cCompleted.Value()
	snap.Failed = s.cFailed.Value()
	if sec := snap.Uptime.Seconds(); sec > 0 {
		snap.ProgramsPerSec = float64(snap.Completed) / sec
	}
	snap.CacheHits = s.cCacheHits.Value()
	snap.CacheMisses = s.cCacheMisses.Value()
	snap.P50 = time.Duration(s.latHist.Quantile(0.50))
	snap.P99 = time.Duration(s.latHist.Quantile(0.99))
	return snap
}

// WriteDashboard renders the snapshot as the daemon's one-screen
// status report.
func (s *Server) WriteDashboard(w io.Writer) error {
	snap := s.Snapshot()
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("tfluxd  up %v  fleet %d/%d nodes alive\n",
		snap.Uptime.Round(time.Second), snap.AliveNodes, snap.Nodes)
	pr("programs  submitted %d  accepted %d  rejected %d  completed %d  failed %d\n",
		snap.Submitted, snap.Accepted, snap.Rejected, snap.Completed, snap.Failed)
	pr("load      running %d  queued %d  arena %d/%d bytes\n",
		snap.Running, snap.Queued, snap.ArenaUsed, snap.ArenaSize)
	pr("latency   %.1f programs/sec  p50 %v  p99 %v (admission→completion)\n",
		snap.ProgramsPerSec, snap.P50, snap.P99)
	hitRate := 0.0
	if total := snap.CacheHits + snap.CacheMisses; total > 0 {
		hitRate = 100 * float64(snap.CacheHits) / float64(total)
	}
	pr("cache     %d hits  %d misses  %.1f%% hit rate (program admission)\n",
		snap.CacheHits, snap.CacheMisses, hitRate)
	for _, t := range snap.Tenants {
		pr("tenant %-12s weight %d  queued %d  in-flight %d\n",
			t.Name, t.Weight, t.Queued, t.InUse)
	}
	return err
}
