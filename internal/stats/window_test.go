package stats

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// FuzzWindowMatchesModel decodes a byte string into operations, two bytes
// each (an operation byte and an argument), on one registry of counters,
// histograms, distributions, float totals and gauges: register a new
// instrument (also between the reads that bound an interval, so paths
// appear mid-window), add to one, read the registry at an interval's
// start, read it at the interval's end and add the difference into a
// window (AddDelta), scale the window, and Reset it. The reads go into
// two snapshots and the window into a third, all reused for the whole
// run. After every operation the window must equal what a naive model
// keeps per instrument: counts that grow by end minus start, dist keys
// that appear mid-window, totals summed as v + end - start, gauges at
// their end value, and counts scaled and rounded one by one.
func FuzzWindowMatchesModel(f *testing.F) {
	f.Add([]byte{})
	// Each kind registered, counted, measured, re-measured after a
	// mid-window registration, scaled and reset.
	f.Add([]byte{
		0, 0, 0, 1, 0, 2, 0, 3, 0, 4,
		1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 2, 0,
		1, 10, 1, 21, 1, 32, 1, 43, 1, 54, 3, 0,
		2, 0, 0, 5, 1, 5, 1, 7, 3, 0,
		4, 100, 2, 0, 1, 9, 3, 0, 5, 0, 2, 0, 1, 2, 3, 0,
	})
	for seed := uint64(0); seed < 4; seed++ {
		r := rand.New(rand.NewPCG(seed, 2))
		stream := make([]byte, 0, 400)
		for len(stream) < cap(stream) {
			stream = append(stream, byte(r.IntN(int(wopCount))), byte(r.IntN(256)))
		}
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := windowModel{reg: NewRegistry(), live: map[string]*liveInst{}, window: map[string]*modelSample{}}
		for i := 0; i+1 < len(data); i += 2 {
			m.apply(data[i]%wopCount, data[i+1])
			if got, want := m.win.Clone().Samples, m.want(); !sameSamples(got, want) {
				t.Fatalf("after operation %d (%d, %d) the window differs from the model\n got %+v\nwant %+v",
					i/2, data[i]%wopCount, data[i+1], got, want)
			}
		}
	})
}

// Operation codes of FuzzWindowMatchesModel, taken modulo wopCount.
const (
	wopRegister = iota
	wopAdd
	wopStart
	wopEnd
	wopScale
	wopReset
	wopCount
)

var (
	windowPaths = [...]string{"a", "a.b", "b", "c.d", "c.e", "d"}
	windowKinds = [...]Kind{KindCounter, KindHist, KindDist, KindTotal, KindGauge}
)

// liveInst is one registered instrument and the model's copy of its state:
// a count, bucket counts by Le, or a float value.
type liveInst struct {
	kind    Kind
	c       Counter
	h       *Histogram
	d       Distribution
	value   float64
	count   uint64
	buckets map[int64]uint64
}

// modelSample is the model's window entry for one path.
type modelSample struct {
	kind    Kind
	count   uint64
	buckets map[int64]uint64
	value   float64
}

type windowModel struct {
	reg             *Registry
	live            map[string]*liveInst
	start           map[string]liveInst // the live state at the last start read
	window          map[string]*modelSample
	startRead, read Snapshot
	win             Snapshot
}

func (m *windowModel) apply(op, arg byte) {
	switch op {
	case wopRegister:
		path := windowPaths[int(arg)%len(windowPaths)]
		if m.live[path] != nil {
			return
		}
		in := &liveInst{kind: windowKinds[int(arg)/len(windowPaths)%len(windowKinds)], buckets: map[int64]uint64{}}
		m.live[path] = in
		switch in.kind {
		case KindCounter:
			m.reg.RegisterCounter(path, &in.c)
		case KindHist:
			in.h = NewHistogram(2, 5)
			m.reg.RegisterHist(path, in.h)
			for _, le := range []int64{2, 5, math.MaxInt64} {
				in.buckets[le] = 0
			}
		case KindDist:
			m.reg.RegisterDist(path, &in.d)
		case KindTotal:
			m.reg.RegisterTotal(path, func() float64 { return in.value })
		case KindGauge:
			m.reg.RegisterGauge(path, func() float64 { return in.value })
		}
	case wopAdd:
		var in *liveInst
		for i := range len(windowPaths) {
			if in = m.live[windowPaths[(int(arg)+i)%len(windowPaths)]]; in != nil {
				break
			}
		}
		if in == nil {
			return
		}
		v := int(arg) / len(windowPaths)
		switch in.kind {
		case KindCounter:
			in.c.Add(uint64(v))
			in.count += uint64(v)
		case KindHist:
			in.h.Observe(v % 8)
			le := int64(math.MaxInt64)
			if v%8 <= 2 {
				le = 2
			} else if v%8 <= 5 {
				le = 5
			}
			in.buckets[le]++
		case KindDist:
			in.d.Observe(v % 5)
			in.buckets[int64(v%5)]++
		case KindTotal:
			in.value += float64(v) / 3
		case KindGauge:
			in.value = float64(v) / 7
		}
	case wopStart:
		m.reg.Read(&m.startRead)
		m.start = map[string]liveInst{}
		for path, in := range m.live {
			m.start[path] = liveInst{kind: in.kind, value: in.value, count: in.count, buckets: copyBuckets(in.buckets)}
		}
	case wopEnd:
		m.reg.Read(&m.read)
		m.win.AddDelta(m.startRead, m.read)
		for path, in := range m.live {
			w := m.window[path]
			if w == nil {
				w = &modelSample{kind: in.kind, buckets: map[int64]uint64{}}
				m.window[path] = w
			}
			from := m.start[path] // zero when the path came after the start read
			switch in.kind {
			case KindCounter:
				w.count += in.count - from.count
			case KindHist, KindDist:
				for le, n := range in.buckets {
					if d := n - from.buckets[le]; d != 0 || in.kind == KindHist {
						w.buckets[le] += d
					}
				}
			case KindTotal:
				w.value = w.value + in.value - from.value
			case KindGauge:
				w.value = in.value
			}
		}
	case wopScale:
		f := float64(arg) / 64
		m.win.Scale(f)
		for _, w := range m.window {
			w.count = uint64(math.Round(float64(w.count) * f))
			for le, n := range w.buckets {
				w.buckets[le] = uint64(math.Round(float64(n) * f))
			}
			if w.kind == KindTotal {
				w.value *= f
			}
		}
	case wopReset:
		m.win.Reset()
		clear(m.window)
	}
}

// want renders the model's window as the samples Clone gives.
func (m *windowModel) want() []Sample {
	var out []Sample
	for path, w := range m.window {
		s := Sample{Path: path, Kind: w.kind.String()}
		switch w.kind {
		case KindCounter:
			s.Count, s.Value = w.count, float64(w.count)
		case KindHist, KindDist:
			for le, n := range w.buckets {
				s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
				s.Count += n
			}
			slices.SortFunc(s.Buckets, func(a, b Bucket) int { return cmp.Compare(a.Le, b.Le) })
			s.Value = float64(s.Count)
		case KindTotal, KindGauge:
			s.Value = w.value
		}
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b Sample) int { return cmp.Compare(a.Path, b.Path) })
	return out
}

// sameSamples reports whether two sample lists are equal, counting a nil
// and an empty list as equal.
func sameSamples(a, b []Sample) bool {
	return len(a)+len(b) == 0 || reflect.DeepEqual(a, b)
}

func copyBuckets(b map[int64]uint64) map[int64]uint64 {
	out := make(map[int64]uint64, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// TestWindowPanicsOnMean: a mean cannot be windowed without its sum, so
// adding or scaling one panics instead of answering wrongly.
func TestWindowPanicsOnMean(t *testing.T) {
	r := NewRegistry()
	mean := NewSyncHistogram(10)
	mean.Observe(3)
	r.RegisterMean("m", mean)
	a := r.Snapshot()
	mean.Observe(5)
	b := r.Snapshot()
	var w Snapshot
	if !panics(func() { w.AddDelta(a, b) }) {
		t.Error("AddDelta over a mean did not panic")
	}
	if !panics(func() { a.Scale(2) }) {
		t.Error("Scale over a mean did not panic")
	}
}

// TestReadReusesStorage: once a snapshot has held a read of a registry's
// paths, reading into it again and windowing the reads allocate nothing,
// and a Clone shares no storage with the buffers it was copied from.
func TestReadReusesStorage(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := NewHistogram(1, 4)
	r.RegisterHist("h", h)
	var d Distribution
	r.RegisterDist("d", &d)
	energy := 0.0
	r.RegisterTotal("e", func() float64 { return energy })
	var a, b, win Snapshot
	step := func() {
		r.Read(&a)
		c.Inc()
		h.Observe(3)
		d.Observe(2)
		energy += 0.1
		r.Read(&b)
		win.AddDelta(a, b)
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("reads and windowing into reused snapshots allocate %v objects, want 0", n)
	}
	out := win.Clone()
	step()
	if out.Counter("c") == win.Counter("c") || out.Samples[1].Buckets[0].Count == win.Samples[1].Buckets[0].Count {
		t.Errorf("the clone changed with the window it was copied from: %+v", out)
	}
}
