// Package stats provides the counters, histograms and derived-metric helpers
// used by every simulator component, plus table rendering for experiment
// output.
//
// All types are plain values with useful zero states so components can embed
// them without constructors. The plain instruments are single-goroutine, so
// the cycle loop pays nothing for them; AtomicCounter and SyncHistogram are
// their concurrency-safe twins for the serving stack.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// AtomicCounter is a Counter that any number of goroutines may bump and
// read at once.
type AtomicCounter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *AtomicCounter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *AtomicCounter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *AtomicCounter) Value() uint64 { return c.n.Load() }

// Ratio returns a/b as float64, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Histogram is a bucketed distribution over non-negative integer samples.
// Bucket boundaries are fixed at construction: bucket i holds samples x with
// bounds[i-1] < x <= bounds[i] (bucket 0 holds x <= bounds[0]); samples above
// the last bound fall into the overflow bucket.
type Histogram struct {
	bounds []int
	counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending inclusive upper
// bounds.
func NewHistogram(bounds ...int) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x int) {
	h.total++
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Fraction returns the fraction of samples in bucket i (overflow bucket is
// index len(bounds)).
func (h *Histogram) Fraction(i int) float64 {
	return Ratio(h.counts[i], h.total)
}

// Count returns the raw count in bucket i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Buckets returns the number of buckets including overflow.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within buckets. Bucket i spans (bounds[i-1], bounds[i]] — bucket 0 starts
// at 0 — so a rank landing exactly on a cumulative bucket boundary returns
// that bucket's upper bound exactly, rather than interpolating into the next
// bucket. Samples in the overflow bucket are reported as the last finite
// bound (the histogram cannot see past it). With no samples Quantile
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.total)
	var cum uint64
	for i, cnt := range h.counts {
		if cnt == 0 {
			continue
		}
		upper := cum + cnt
		if rank <= float64(upper) {
			if i >= len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1])
			}
			hi := float64(h.bounds[i])
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			frac := (rank - float64(cum)) / float64(cnt)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = upper
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Reset zeroes all buckets.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

func (h *Histogram) readHist(buf []Bucket) (uint64, []Bucket) {
	buckets := buf[:0]
	for i, n := range h.counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = int64(h.bounds[i])
		}
		buckets = append(buckets, Bucket{Le: le, Count: n})
	}
	return h.total, buckets
}

// SyncHistogram is a Histogram that any number of goroutines may observe
// into and read at once. It also keeps the running sum of its samples, so
// one instrument is both a latency histogram and its mean.
type SyncHistogram struct {
	mu  sync.Mutex
	h   *Histogram //uopvet:guardedby mu
	sum int64      //uopvet:guardedby mu
}

// NewSyncHistogram builds a histogram with the given ascending inclusive
// upper bounds (see NewHistogram).
func NewSyncHistogram(bounds ...int) *SyncHistogram {
	return &SyncHistogram{h: NewHistogram(bounds...)}
}

// Observe records one sample.
func (h *SyncHistogram) Observe(x int) {
	h.mu.Lock()
	h.h.Observe(x)
	h.sum += int64(x)
	h.mu.Unlock()
}

// Mean returns the mean sample, or 0 with no samples.
func (h *SyncHistogram) Mean() float64 {
	mean, _ := h.readMean()
	return mean
}

// Quantile estimates the q-quantile (see Histogram.Quantile).
func (h *SyncHistogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

func (h *SyncHistogram) readHist(buf []Bucket) (uint64, []Bucket) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.readHist(buf)
}

func (h *SyncHistogram) readMean() (float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.h.total == 0 {
		return 0, 0
	}
	return float64(h.sum) / float64(h.h.total), h.h.total
}

// Distribution is a dense distribution over small integer keys (e.g. "OC
// entries per PW"), tracking exact counts per key.
type Distribution struct {
	counts map[int]uint64
	total  uint64
}

// Observe records one sample of value k.
func (d *Distribution) Observe(k int) {
	if d.counts == nil {
		d.counts = make(map[int]uint64)
	}
	d.counts[k]++
	d.total++
}

// Reset drops every sample, keeping the map's storage.
func (d *Distribution) Reset() {
	clear(d.counts)
	d.total = 0
}

// Fraction returns the fraction of samples equal to k.
func (d *Distribution) Fraction(k int) float64 {
	return Ratio(d.counts[k], d.total)
}

// Total returns the total number of samples.
func (d *Distribution) Total() uint64 { return d.total }

// readBuckets returns one bucket per observed key, in ascending key
// order, in buf's storage.
func (d *Distribution) readBuckets(buf []Bucket) []Bucket {
	buckets := buf[:0]
	for k, c := range d.counts {
		buckets = append(buckets, Bucket{Le: int64(k), Count: c})
	}
	slices.SortFunc(buckets, func(a, b Bucket) int { return cmp.Compare(a.Le, b.Le) })
	return buckets
}

// GeoMean returns the geometric mean of xs. Non-positive entries are skipped
// (they would otherwise poison the product); an empty input yields 0.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of xs, or 0 for empty input.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pct formats a fraction as a percentage string like "12.3%".
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
