package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone event counter, safe for concurrent use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Add on Counter")
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// rateBuckets is the time resolution of a RateWindow: the window is
// divided into this many fixed buckets, so counting is O(buckets) and
// recording is O(1) with zero allocation — an event list would grow
// without bound when many events share one instant (the virtual clock
// stands still during direct-mode request execution).
const rateBuckets = 128

// RateWindow converts a stream of event timestamps into a rate (events per
// second) over a sliding window. The throughput curves of Fig. 3 are
// produced by sampling one of these. Observations land on per-shard bucket
// rings (each with its own short-lived lock) so concurrent recorders do
// not serialise on one mutex; reads merge the in-window buckets. Counts
// are bucketed at window/128 resolution: an event is attributed to its
// bucket's start instant, so expiry at the trailing edge of the window is
// accurate to one bucket width.
type RateWindow struct {
	window time.Duration
	gran   int64 // bucket width in nanoseconds
	shards []rateShard
}

type rateBucket struct {
	period int64 // bucket start = period * gran
	count  int64
}

type rateShard struct {
	mu      sync.Mutex
	buckets [rateBuckets]rateBucket
}

// NewRateWindow creates a sliding window of the given width.
func NewRateWindow(window time.Duration) *RateWindow {
	if window <= 0 {
		panic("metrics: non-positive rate window")
	}
	gran := int64(window) / rateBuckets
	if gran <= 0 {
		gran = 1
	}
	return &RateWindow{window: window, gran: gran, shards: make([]rateShard, defaultShards())}
}

// period maps an instant to its bucket period (floor division, so
// pre-epoch instants bucket consistently too).
func (r *RateWindow) period(t time.Time) int64 {
	n := t.UnixNano()
	p := n / r.gran
	if n < 0 && n%r.gran != 0 {
		p--
	}
	return p
}

// Observe records one event at time t.
func (r *RateWindow) Observe(t time.Time) {
	p := r.period(t)
	s := &r.shards[shardHint(len(r.shards))]
	s.mu.Lock()
	b := &s.buckets[uint64(p)%rateBuckets]
	if b.period != p {
		b.period = p
		b.count = 0
	}
	b.count++
	s.mu.Unlock()
}

// Rate returns events per second over the window ending at now.
func (r *RateWindow) Rate(now time.Time) float64 {
	return float64(r.Count(now)) / r.window.Seconds()
}

// Count returns the number of events inside the window ending at now:
// all buckets whose start lies after now-window. Events in the bucket
// straddling the trailing edge expire together with their bucket start.
func (r *RateWindow) Count(now time.Time) int {
	cutP := r.period(now.Add(-r.window))
	var n int64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for j := range s.buckets {
			if b := &s.buckets[j]; b.period > cutP {
				n += b.count
			}
		}
		s.mu.Unlock()
	}
	return int(n)
}
