package surrogate

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"uopsim/internal/runcache"
)

// This file keeps the model's original query and fit, which split every
// feature vector into a map of numeric values and a canonical string of
// sorted categorical pairs, as a reference. FuzzPredictMatchesReference
// holds the allocation-lean Predict and refit to it bit for bit.

// refSplitFeatures separates a feature vector into its numeric dimensions
// and its categorical signature. Duplicate numeric keys keep the last
// value.
func refSplitFeatures(feat runcache.Features) (num map[string]float64, sig string) {
	num = make(map[string]float64, len(feat))
	var cat runcache.Features
	for _, kv := range feat {
		if v, ok := kv.Numeric(); ok {
			num[kv.Key] = v
		} else {
			cat = append(cat, kv)
		}
	}
	sort.Slice(cat, func(i, j int) bool {
		if cat[i].Key != cat[j].Key {
			return cat[i].Key < cat[j].Key
		}
		return cat[i].Value < cat[j].Value
	})
	return num, cat.Canonical()
}

// refFit is the reference refit of corpus (without the metric-name union,
// which the reference interpolation recomputes from the neighbors).
func refFit(corpus map[runcache.Fingerprint]Point) *fitState {
	fps := make([]runcache.Fingerprint, 0, len(corpus))
	for fp := range corpus {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })

	type encoded struct {
		p   Point
		num map[string]float64
		sig string
	}
	encs := make([]encoded, 0, len(fps))
	dimSet := make(map[string]bool)
	for _, fp := range fps {
		p := corpus[fp]
		num, sig := refSplitFeatures(p.Features)
		for k := range num {
			dimSet[k] = true
		}
		encs = append(encs, encoded{p: p, num: num, sig: sig})
	}
	dims := make([]string, 0, len(dimSet))
	for k := range dimSet {
		dims = append(dims, k)
	}
	sort.Strings(dims)

	st := &fitState{
		dims:  dims,
		index: make(map[string]int, len(dims)),
		mean:  make([]float64, len(dims)),
		scale: make([]float64, len(dims)),
		parts: make(map[string]*partition),
		byFP:  make(map[runcache.Fingerprint]*mpoint, len(encs)),
	}
	for i, d := range dims {
		st.index[d] = i
	}
	count := make([]float64, len(dims))
	for _, e := range encs {
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				st.mean[i] += v
				count[i]++
			}
		}
	}
	for i := range st.mean {
		if count[i] > 0 {
			st.mean[i] /= count[i]
		}
	}
	for _, e := range encs {
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				d := v - st.mean[i]
				st.scale[i] += d * d
			}
		}
	}
	for i := range st.scale {
		if count[i] > 0 {
			st.scale[i] = math.Sqrt(st.scale[i] / count[i])
		}
		if st.scale[i] == 0 {
			st.scale[i] = 1
		}
	}
	for _, e := range encs {
		vec := make([]float64, len(dims))
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				vec[i] = (v - st.mean[i]) / st.scale[i]
			}
		}
		mp := &mpoint{fp: e.p.Fingerprint, vec: vec, metrics: e.p.Metrics}
		st.byFP[e.p.Fingerprint] = mp
		part := st.parts[e.sig]
		if part == nil {
			part = &partition{}
			st.parts[e.sig] = part
		}
		part.pts = append(part.pts, mp)
	}
	if len(dims) > 0 {
		for _, part := range st.parts {
			tmp := make([]*mpoint, len(part.pts))
			copy(tmp, part.pts)
			part.tree = buildKD(tmp, 0, len(dims))
		}
	}
	return st
}

// refOutcome names which counter a prediction moves.
type refOutcome int

const (
	refNone refOutcome = iota
	refExact
	refInterpolated
)

// refPredict is the reference Predict over m's exact map and fitted state.
func refPredict(m *Model, feat runcache.Features) (Prediction, bool, refOutcome) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ev, ok := m.exact[feat.Canonical()]; ok {
		return Prediction{Metrics: ev.metrics, Confidence: 1, Neighbors: 1, Exact: true}, true, refExact
	}
	st := m.fitted
	if st == nil || len(st.dims) == 0 {
		return Prediction{}, false, refNone
	}
	num, sig := refSplitFeatures(feat)
	part := st.parts[sig]
	if part == nil || part.tree == nil {
		return Prediction{}, false, refNone
	}
	vec := make([]float64, len(st.dims))
	for k, v := range num {
		i, ok := st.index[k]
		if !ok {
			return Prediction{}, false, refNone
		}
		vec[i] = (v - st.mean[i]) / st.scale[i]
	}
	acc := knnAcc{k: m.opts.K, items: make([]neighbor, 0, m.opts.K)}
	part.tree.search(vec, 0, &acc)
	if len(acc.items) == 0 {
		return Prediction{}, false, refNone
	}
	return refInterpolate(m.opts, acc.items, len(st.dims)), true, refInterpolated
}

// refInterpolate is the reference blend, which collects the metric names
// from the neighbors it is given.
func refInterpolate(opts Options, nbrs []neighbor, dims int) Prediction {
	const eps = 1e-9
	weights := make([]float64, len(nbrs))
	var wsum float64
	for i, nb := range nbrs {
		weights[i] = 1 / (nb.d2 + eps)
		wsum += weights[i]
	}
	keys := make(map[string]bool)
	for _, nb := range nbrs {
		for k := range nb.p.metrics {
			keys[k] = true
		}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make(map[string]float64, len(names))
	for _, name := range names {
		var v, w float64
		for i, nb := range nbrs {
			if mv, ok := nb.p.metrics[name]; ok {
				v += weights[i] * mv
				w += weights[i]
			}
		}
		if w > 0 {
			out[name] = v / w
		}
	}
	d1 := math.Sqrt(nbrs[0].d2 / float64(dims))
	scored := names
	if opts.ReferenceMetric != "" {
		if _, ok := out[opts.ReferenceMetric]; ok {
			scored = []string{opts.ReferenceMetric}
		}
	}
	var spread float64
	for _, name := range scored {
		mean := out[name]
		if mean == 0 {
			continue
		}
		var varsum float64
		for i, nb := range nbrs {
			if mv, ok := nb.p.metrics[name]; ok {
				d := mv - mean
				varsum += weights[i] / wsum * d * d
			}
		}
		if s := math.Sqrt(varsum) / math.Abs(mean); s > spread {
			spread = s
		}
	}
	if len(nbrs) < 2 {
		spread = opts.SpreadScale
	}
	conf := 1 / (1 + d1/opts.DistanceScale + spread/opts.SpreadScale)
	return Prediction{Metrics: out, Confidence: conf, Neighbors: len(nbrs), Distance: d1}
}

// parseFeatures reads one feature vector written as key=value pairs
// joined by ';' ("" is the empty vector).
func parseFeatures(s string) runcache.Features {
	feat := runcache.Features{}
	if s == "" {
		return feat
	}
	for _, pair := range strings.Split(s, ";") {
		k, v, _ := strings.Cut(pair, "=")
		feat = append(feat, runcache.KV{Key: k, Value: v})
	}
	return feat
}

// fuzzPoints reads one training point per line of train. Line i gets
// fingerprint fp<i mod 8>, so long inputs repeat fingerprints, and metrics
// derived from i, with an extra metric on every third line so neighbors
// disagree on which names they carry; a line starting with '!' carries no
// metrics (the model skips it).
func fuzzPoints(train string) []Point {
	var pts []Point
	for i, line := range strings.Split(train, "\n") {
		p := Point{Fingerprint: runcache.Fingerprint("fp" + strconv.Itoa(i%8))}
		if rest, ok := strings.CutPrefix(line, "!"); ok {
			p.Features = parseFeatures(rest)
		} else {
			p.Features = parseFeatures(line)
			p.Metrics = map[string]float64{"upc": float64(len(line)) + float64(i), "ipc": 1 / (1 + float64(i))}
			if i%3 == 0 {
				p.Metrics["extra"] = float64(i) - 1
			}
		}
		pts = append(pts, p)
	}
	return pts
}

// sameFloat compares bit patterns, so NaNs match themselves.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePrediction(a, b Prediction) bool {
	if a.Exact != b.Exact || a.Neighbors != b.Neighbors ||
		!sameFloat(a.Confidence, b.Confidence) || !sameFloat(a.Distance, b.Distance) ||
		len(a.Metrics) != len(b.Metrics) || (a.Metrics == nil) != (b.Metrics == nil) {
		return false
	}
	for k, v := range a.Metrics {
		w, ok := b.Metrics[k]
		if !ok || !sameFloat(v, w) {
			return false
		}
	}
	return true
}

// checkFit requires the model's current fit to equal the reference refit
// of its corpus: layout, normalization bits, partitions and tree shapes.
func checkFit(t *testing.T, m *Model) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	got, want := m.fitted, refFit(m.corpus)
	sameFloats := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameFloat(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if !reflect.DeepEqual(got.dims, want.dims) || !reflect.DeepEqual(got.index, want.index) ||
		!sameFloats(got.mean, want.mean) || !sameFloats(got.scale, want.scale) {
		t.Fatalf("fit layout differs from the reference:\ndims %q\nwant %q\nmean %v scale %v\nwant %v %v",
			got.dims, want.dims, got.mean, got.scale, want.mean, want.scale)
	}
	if len(got.byFP) != len(want.byFP) || len(got.parts) != len(want.parts) {
		t.Fatalf("fit has %d points in %d partitions, reference %d in %d",
			len(got.byFP), len(got.parts), len(want.byFP), len(want.parts))
	}
	var sameTree func(a, b *kdNode) bool
	sameTree = func(a, b *kdNode) bool {
		if a == nil || b == nil {
			return a == b
		}
		return a.p.fp == b.p.fp && sameTree(a.left, b.left) && sameTree(a.right, b.right)
	}
	for sig, wp := range want.parts {
		gp := got.parts[sig]
		if gp == nil {
			t.Fatalf("fit lacks the reference partition %q", sig)
		}
		if len(gp.pts) != len(wp.pts) || !sameTree(gp.tree, wp.tree) {
			t.Fatalf("partition %q differs from the reference", sig)
		}
		for i, p := range wp.pts {
			g := gp.pts[i]
			if g.fp != p.fp || !sameFloats(g.vec, p.vec) ||
				reflect.ValueOf(g.metrics).UnsafePointer() != reflect.ValueOf(p.metrics).UnsafePointer() {
				t.Fatalf("partition %q point %d: %s %v, reference %s %v", sig, i, g.fp, g.vec, p.fp, p.vec)
			}
		}
	}
}

// FuzzPredictMatchesReference builds a model from the fuzzed training
// lines, edits it (removals leave tombstones until the next refit,
// re-inserts supersede), and after every step requires each query — the
// fuzzed ones and every training vector — to get the reference's answer
// bit for bit and to move the same counter. After every refit the fitted
// state must equal the reference refit.
func FuzzPredictMatchesReference(f *testing.F) {
	line := func(wl string, capacity int, extra string) string {
		return "workload=" + wl + ";suite=SPEC CPU 2017;config.capacity=" + strconv.Itoa(capacity) +
			";config.on=true" + extra
	}
	var grid []string
	for _, wl := range []string{"bm_cc", "redis"} {
		for _, c := range []int{512, 1024, 2048, 4096, 8192} {
			grid = append(grid, line(wl, c, ""))
		}
	}
	train := strings.Join(grid, "\n")
	// A reordered categorical pair must land in the same partition.
	swapped := "suite=SPEC CPU 2017;workload=bm_cc;config.capacity=3072;config.on=true"
	f.Add(uint8(0), train, []byte{}, line("bm_cc", 3072, "")+"\n"+swapped)
	// Duplicate numeric keys: the last value wins, in training and queries.
	f.Add(uint8(3), train+"\n"+line("redis", 1024, ";config.capacity=16384"), []byte{},
		line("bm_cc", 1024, ";config.capacity=6000")+"\n"+line("redis", 1024, ";config.capacity=16384"))
	// A numeric key the fit never saw refuses.
	f.Add(uint8(2), train, []byte{}, line("bm_cc", 3072, ";config.newknob=7"))
	// Values that parse as numbers are dimensions, not categories.
	f.Add(uint8(2),
		"workload=inf;x=1\nworkload=NaN;x=2\nworkload=0x1p-2;x=3\nworkload=+.5;x=4\nworkload=nutch;x=5\nworkload=nutch;x=6",
		[]byte{}, "workload=inf;x=1.5\nworkload=0x1p-2;x=2\nworkload=nutch;x=5.5\nworkload=Infinity;x=1")
	// The empty vector, as a query and as a training line.
	f.Add(uint8(0), train+"\n", []byte{}, "")
	// K larger than the partition.
	f.Add(uint8(8), "workload=a;x=1\nworkload=a;x=2\nworkload=b;x=1", []byte{}, "workload=a;x=1.5\nworkload=b;x=3")
	// Tombstoned neighbors: removals of the nearest points before a refit,
	// then a re-insert; ReferenceMetric set (high bit of k).
	f.Add(uint8(0x81), train, []byte{4, 6, 3, 8}, line("bm_cc", 1500, "")+"\n"+line("bm_cc", 600, ""))
	// A point without metrics is skipped.
	f.Add(uint8(1), train+"\n!"+line("bm_cc", 3072, ""), []byte{1}, line("bm_cc", 3072, ""))

	f.Fuzz(func(t *testing.T, k uint8, train string, ops []byte, query string) {
		opts := Options{K: int(k & 0x0f)}
		if k&0x80 != 0 {
			opts.ReferenceMetric = "upc"
		}
		pts := fuzzPoints(train)
		var queries []runcache.Features
		for _, q := range strings.Split(query, "\n") {
			queries = append(queries, parseFeatures(q))
		}
		for _, p := range pts {
			queries = append(queries, p.Features)
		}
		m := New(opts)
		check := func(step string) {
			for _, q := range queries {
				before := m.Stats()
				got, ok := m.Predict(q)
				after := m.Stats()
				want, wantOK, outcome := refPredict(m, q)
				if ok != wantOK || !samePrediction(got, want) {
					t.Fatalf("%s: query %v\nPredict   %v %+v\nreference %v %+v", step, q, ok, got, wantOK, want)
				}
				moved := [3]uint64{
					after.NoPrediction - before.NoPrediction,
					after.ExactHits - before.ExactHits,
					after.Interpolated - before.Interpolated,
				}
				var wantMoved [3]uint64
				wantMoved[outcome] = 1
				if moved != wantMoved {
					t.Fatalf("%s: query %v moved no_prediction/exact_hits/interpolated by %v, reference %v",
						step, q, moved, wantMoved)
				}
			}
		}
		m.Fit(pts)
		checkFit(t, m)
		check("fit")
		if len(ops) > 32 {
			ops = ops[:32]
		}
		for i, op := range ops {
			p := pts[int(op>>1)%len(pts)]
			retrains := m.Stats().Retrains
			if op&1 == 0 {
				m.Remove(p.Fingerprint)
			} else {
				if p.Metrics != nil {
					scaled := make(map[string]float64, len(p.Metrics))
					for name, v := range p.Metrics {
						scaled[name] = v * float64(1+i)
					}
					p.Metrics = scaled
				}
				m.Insert(p)
			}
			if m.Stats().Retrains != retrains {
				checkFit(t, m)
			}
			check("op " + strconv.Itoa(i))
		}
	})
}
