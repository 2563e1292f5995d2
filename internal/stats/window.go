package stats

import (
	"fmt"
	"math"
	"slices"
)

// A window is what a registry counted between reads: AddDelta adds the
// difference of two reads into a snapshot, and Scale stretches the sum to
// a longer run. Per kind:
//
//   - counter: the count grows by b - a; Scale rounds it to an integer;
//   - hist and dist: each bucket counts like a counter and the sample's
//     count is the sum of its buckets; a dist keeps only keys it counted;
//   - total: the value becomes v + b - a, in that order; Scale multiplies;
//   - gauge: a point-in-time value, so the window keeps b's.
//
// A mean cannot be windowed without its sum: AddDelta and Scale panic.

// Reset empties s, keeping its storage for the next Read or AddDelta.
func (s *Snapshot) Reset() { s.Samples = s.Samples[:0] }

// AddDelta adds b - a into s, where a and b are reads of one registry, a
// taken first. A path missing from a counts from zero, and a path of b
// that s lacks is inserted. Once s has held b's paths, it allocates
// nothing unless a dist counts a new key.
func (s *Snapshot) AddDelta(a, b Snapshot) {
	if len(s.Samples) == 0 {
		// Start from b's paths, reusing each slot's bucket storage.
		s.Samples = slices.Grow(s.Samples[:cap(s.Samples)], max(len(b.Samples)-cap(s.Samples), 0))[:len(b.Samples)]
		for i, sb := range b.Samples {
			s.Samples[i] = Sample{Path: sb.Path, Kind: sb.Kind, Buckets: s.Samples[i].Buckets[:0]}
		}
	}
	i, k := 0, 0 // cursors into s and a
	for j := range b.Samples {
		sb := &b.Samples[j]
		for i < len(s.Samples) && s.Samples[i].Path < sb.Path {
			i++
		}
		if i == len(s.Samples) || s.Samples[i].Path != sb.Path {
			s.Samples = slices.Insert(s.Samples, i, Sample{Path: sb.Path, Kind: sb.Kind})
		}
		for k < len(a.Samples) && a.Samples[k].Path < sb.Path {
			k++
		}
		var from Sample
		if k < len(a.Samples) && a.Samples[k].Path == sb.Path {
			from = a.Samples[k]
		}
		s.Samples[i].addDelta(from, sb)
	}
}

// addDelta adds b - a into w; a is the zero Sample when b's path is new.
func (w *Sample) addDelta(a Sample, b *Sample) {
	if w.Kind != b.Kind || a.Kind != "" && a.Kind != b.Kind {
		panic(fmt.Sprintf("stats: %q changed kind within a window", b.Path))
	}
	switch w.Kind {
	case kindNames[KindCounter]:
		w.Count += b.Count - a.Count
		w.Value = float64(w.Count)
	case kindNames[KindTotal]:
		w.Value = w.Value + b.Value - a.Value
	case kindNames[KindGauge]:
		w.Value = b.Value
	case kindNames[KindHist], kindNames[KindDist]:
		i, k := 0, 0 // cursors into w's and a's buckets
		for _, bk := range b.Buckets {
			d := bk.Count
			for k < len(a.Buckets) && a.Buckets[k].Le < bk.Le {
				k++
			}
			if k < len(a.Buckets) && a.Buckets[k].Le == bk.Le {
				d -= a.Buckets[k].Count
			}
			for i < len(w.Buckets) && w.Buckets[i].Le < bk.Le {
				i++
			}
			switch {
			case i < len(w.Buckets) && w.Buckets[i].Le == bk.Le:
				w.Buckets[i].Count += d
			case d != 0 || w.Kind == kindNames[KindHist]: // a hist keeps every bucket
				w.Buckets = slices.Insert(w.Buckets, i, Bucket{Le: bk.Le, Count: d})
			}
		}
		w.sumBuckets()
	default:
		panic(fmt.Sprintf("stats: cannot window %s %q", w.Kind, w.Path))
	}
}

// Scale multiplies the window s by f: the estimate of a run f times as
// long as the one s counted.
func (s *Snapshot) Scale(f float64) {
	for i := range s.Samples {
		w := &s.Samples[i]
		switch w.Kind {
		case kindNames[KindCounter]:
			w.Count = scaleRound(w.Count, f)
			w.Value = float64(w.Count)
		case kindNames[KindTotal]:
			w.Value *= f
		case kindNames[KindGauge]:
		case kindNames[KindHist], kindNames[KindDist]:
			for j := range w.Buckets {
				w.Buckets[j].Count = scaleRound(w.Buckets[j].Count, f)
			}
			w.sumBuckets()
		default:
			panic(fmt.Sprintf("stats: cannot scale %s %q", w.Kind, w.Path))
		}
	}
}

// scaleRound scales a count, rounding to the nearest integer.
func scaleRound(v uint64, f float64) uint64 {
	return uint64(math.Round(float64(v) * f))
}

// sumBuckets sets a hist's or dist's count to the sum of its buckets.
func (w *Sample) sumBuckets() {
	w.Count = 0
	for _, bk := range w.Buckets {
		w.Count += bk.Count
	}
	w.Value = float64(w.Count)
}

// Clone returns a copy of s that shares no storage with it. An empty
// bucket list, which reused storage may leave, becomes nil.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{Samples: slices.Clone(s.Samples)}
	for i := range out.Samples {
		if b := &out.Samples[i].Buckets; len(*b) == 0 {
			*b = nil
		} else {
			*b = slices.Clone(*b)
		}
	}
	return out
}
